// Montgomery batch inversion over the scalar field Z_q.
//
// A field inversion (extended Euclid, mod_inv) costs tens of multiplications
// worth of divisions; Montgomery's trick inverts n elements with ONE
// inversion plus 3(n-1) multiplications by inverting the running product and
// peeling per-element inverses back out. Lagrange-coefficient generation
// (poly/lagrange.hpp) is the protocol's inversion hot spot — every
// prefix-basis extension and every winner-interpolation basis inverts one
// denominator per point — and converts wholesale: dmwlint rule `loop-inverse`
// flags any new inv()-in-a-loop in src/dmw and src/poly and points here.
//
// Op-count contract (opcount.hpp): the trick's multiplications go through
// the backend's counted smul and the single inversion through sinv, so the
// `inv` counter drops from n to 1 per converted loop while `mul` gains
// 3(n-1) — exactly the trade the complexity accounting should show.
#pragma once

#include <span>
#include <vector>

#include "numeric/group.hpp"

namespace dmw::num {

/// In-place batch inversion in Z_q: values[i] <- values[i]^{-1}. Every entry
/// must be invertible (nonzero mod q); a zero entry would poison the shared
/// product, so it is rejected up front rather than surfacing as a confusing
/// failure on the aggregate.
template <GroupBackend G>
void batch_inverse(const G& g, std::span<typename G::Scalar> values) {
  const std::size_t n = values.size();
  if (n == 0) return;
  for (const auto& v : values)
    DMW_REQUIRE_MSG(v != g.szero(), "batch_inverse: zero operand");
  if (n == 1) {
    values[0] = g.sinv(values[0]);
    return;
  }
  // prefix[i] = values[0] * ... * values[i]
  std::vector<typename G::Scalar> prefix(n);
  prefix[0] = values[0];
  for (std::size_t i = 1; i < n; ++i)
    prefix[i] = g.smul(prefix[i - 1], values[i]);
  // Peel back: `suffix` holds (values[i] * ... * values[n-1])^{-1}.
  typename G::Scalar suffix = g.sinv(prefix[n - 1]);
  for (std::size_t i = n - 1; i > 0; --i) {
    const typename G::Scalar inv_i = g.smul(suffix, prefix[i - 1]);
    suffix = g.smul(suffix, values[i]);
    values[i] = inv_i;
  }
  values[0] = suffix;
}

/// Convenience: batch-invert a freshly built vector (the common shape in
/// Lagrange basis generation: collect denominators, invert, consume).
template <GroupBackend G>
std::vector<typename G::Scalar> batch_inverted(
    const G& g, std::vector<typename G::Scalar> values) {
  batch_inverse(g, std::span<typename G::Scalar>(values));
  return values;
}

}  // namespace dmw::num
