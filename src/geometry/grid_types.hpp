// The grid layer of one dimension, for code written once over both: the
// domain, the boundary pass, the dump codec, the block layer, the link
// planner and DomainTraits.  PaddedField<T, Dim>, MaskSpans<Dim> and
// Mask<Dim> are one class template each, and a 2D object is the one plane
// z = 0; only the extents and box structs differ by dimension, and
// GridTypes<Dim> (src/grid/extents.hpp) names the pair a dimension uses.
#pragma once

#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/mask_spans.hpp"
#include "src/grid/padded_field.hpp"
