#include "compile/passes.hh"

#include "common/error.hh"
#include "common/hash.hh"
#include "transpile/direction_fixer.hh"
#include "transpile/optimizer.hh"
#include "transpile/router.hh"

namespace qra {
namespace compile {

namespace {

const CouplingMap &
requireCoupling(const CompileContext &ctx, const char *pass)
{
    if (ctx.coupling == nullptr)
        throw TranspileError(std::string(pass) +
                             " requires a coupling map");
    return *ctx.coupling;
}

} // namespace

// --- DecomposePass ---------------------------------------------------

std::uint64_t
DecomposePass::fingerprint(std::uint64_t h) const
{
    return fnv1aMix64(h, (options_.decomposeSwap ? 1u : 0u) |
                             (options_.decomposeCcx ? 2u : 0u));
}

std::string
DecomposePass::describe() const
{
    std::string out = "decompose (";
    out += options_.decomposeSwap ? "swap " : "";
    out += options_.decomposeCcx ? "ccx " : "";
    if (out.back() == ' ')
        out.pop_back();
    return out + ")";
}

void
DecomposePass::run(CompileContext &ctx) const
{
    ctx.circuit = decompose(std::move(ctx.circuit), options_);
}

// --- LayoutPass ------------------------------------------------------

std::uint64_t
LayoutPass::fingerprint(std::uint64_t h) const
{
    // Folds the layout strategy (1 = greedy), which keeps pipeline
    // fingerprints, and so prepare-cache keys and the goldened
    // --dump-pipeline output, stable.
    return fnv1aMix64(h, 1u);
}

std::string
LayoutPass::describe() const
{
    return "layout (greedy)";
}

void
LayoutPass::run(CompileContext &ctx) const
{
    ctx.initialLayout =
        greedyLayout(ctx.circuit, requireCoupling(ctx, "layout"));
}

// --- RoutingPass -----------------------------------------------------

void
RoutingPass::run(CompileContext &ctx) const
{
    const CouplingMap &map = requireCoupling(ctx, "route");
    if (!ctx.initialLayout)
        ctx.initialLayout = trivialLayout(ctx.circuit, map);
    WireAnchors anchors;
    if (ctx.instrumented) {
        anchors.resize(ctx.circuit.numQubits());
        for (const InstrumentedCircuit::Check &check :
             ctx.instrumented->checks())
            for (const Qubit a : check.ancillas)
                if (a < anchors.size() && anchors[a].empty())
                    anchors[a] = check.spec.targets;
    }
    RoutedCircuit routed =
        routeCircuit(std::move(ctx.circuit), map, *ctx.initialLayout,
                     anchors);
    ctx.insertedSwaps += routed.insertedSwaps;
    ctx.pendingNote =
        std::to_string(routed.insertedSwaps) + " swaps inserted";
    ctx.finalLayout = std::move(routed.finalLayout);
    ctx.circuit = std::move(routed.circuit);
}

// --- DirectionFixPass ------------------------------------------------

void
DirectionFixPass::run(CompileContext &ctx) const
{
    const CouplingMap &map = requireCoupling(ctx, "direction-fix");
    DirectionFixResult fixed =
        fixDirections(std::move(ctx.circuit), map);
    ctx.reversedCx += fixed.reversedCx;
    ctx.pendingNote =
        std::to_string(fixed.reversedCx) + " cx reversed";
    ctx.circuit = std::move(fixed.circuit);
}

// --- OptimizePass ----------------------------------------------------

void
OptimizePass::run(CompileContext &ctx) const
{
    OptimizeResult opt = optimizeCircuit(std::move(ctx.circuit));
    ctx.cancelledGates += opt.cancelledGates;
    ctx.mergedRotations += opt.mergedRotations;
    ctx.pendingNote = std::to_string(opt.cancelledGates) +
                      " cancelled, " +
                      std::to_string(opt.mergedRotations) + " merged";
    ctx.circuit = std::move(opt.circuit);
}

// --- Assertion fingerprint folds ------------------------------------

std::uint64_t
foldAssertionSpec(std::uint64_t h, const AssertionSpec &spec)
{
    if (!spec.assertion)
        throw AssertionError("spec without an assertion");
    h = fnv1aMix64(h,
                   static_cast<std::uint64_t>(spec.assertion->kind()));
    h = fnv1aMix64(h, spec.assertion->numTargets());
    h = fnv1aMix64(h, spec.assertion->numAncillas());
    // Emit the check into a scratch circuit with canonical operand
    // numbering and fold its semantic hash: this captures the exact
    // gates the assertion produces (including full-precision
    // parameters, which describe() strings truncate), so two specs
    // fold equal iff they instrument identically.
    const std::size_t num_targets = spec.assertion->numTargets();
    const std::size_t num_ancillas = spec.assertion->numAncillas();
    Circuit scratch(num_targets + num_ancillas, num_ancillas);
    std::vector<Qubit> targets(num_targets);
    std::vector<Qubit> ancillas(num_ancillas);
    std::vector<Clbit> clbits(num_ancillas);
    for (std::size_t j = 0; j < num_targets; ++j)
        targets[j] = static_cast<Qubit>(j);
    for (std::size_t j = 0; j < num_ancillas; ++j) {
        ancillas[j] = static_cast<Qubit>(num_targets + j);
        clbits[j] = static_cast<Clbit>(j);
    }
    spec.assertion->emit(scratch, targets, ancillas, clbits);
    h = fnv1aMix64(h, scratch.hash());
    h = fnv1aMix64(h, spec.targets.size());
    for (const Qubit q : spec.targets)
        h = fnv1aMix64(h, q);
    h = fnv1aMix64(h, spec.insertAt);
    h = fnv1aMix64(h, spec.repetitions);
    // The label never reaches the executed circuit, but it is stored
    // in the cached bookkeeping and printed by AssertionReport — a
    // label-only difference must re-prepare rather than surface the
    // cached submission's label.
    h = fnv1aMixString(h, spec.label);
    return h;
}

std::uint64_t
foldInstrumentOptions(std::uint64_t h, const InstrumentOptions &options)
{
    return fnv1aMix64(h, (options.reuseAncillas ? 1u : 0u) |
                             (options.barriers ? 2u : 0u));
}

// --- InstrumentPass --------------------------------------------------

std::uint64_t
InstrumentPass::fingerprint(std::uint64_t h) const
{
    h = foldInstrumentOptions(h, options_);
    h = fnv1aMix64(h, specs_.size());
    for (const AssertionSpec &spec : specs_)
        h = foldAssertionSpec(h, spec);
    return h;
}

std::string
InstrumentPass::describe() const
{
    std::string out = name() + " (" + std::to_string(specs_.size()) +
                      (specs_.size() == 1 ? " check" : " checks");
    if (options_.reuseAncillas)
        out += ", reuse-ancillas";
    if (!options_.barriers)
        out += ", no-barriers";
    return out + ")";
}

void
InstrumentPass::run(CompileContext &ctx) const
{
    auto inst = std::make_shared<InstrumentedCircuit>(
        detail::weaveAssertions(ctx.circuit, specs_, options_));
    ctx.circuit = inst->circuit();
    ctx.instrumented = std::move(inst);
}

} // namespace compile
} // namespace qra
