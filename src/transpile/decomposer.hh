/**
 * @file
 * Gate decomposition towards the {1q, CX} basis: SWAP -> 3 CX,
 * CCX -> the standard 6-CX realisation over H/T/Tdg.
 */

#ifndef QRA_TRANSPILE_DECOMPOSER_HH
#define QRA_TRANSPILE_DECOMPOSER_HH

#include "circuit/circuit.hh"

namespace qra {

/** Options controlling which gates are decomposed. */
struct DecomposeOptions
{
    bool decomposeSwap = true;
    bool decomposeCcx = true;
};

/**
 * Rewrite @p circuit per @p options; other gates pass through. When
 * no gate is one @p options lower, the input comes back as it went in
 * (renamed "<name>_decomposed") rather than rebuilt. Consumes
 * @p circuit (pass an rvalue to avoid a copy).
 */
Circuit decompose(Circuit circuit, const DecomposeOptions &options = {});

} // namespace qra

#endif // QRA_TRANSPILE_DECOMPOSER_HH
