#include "transpile/transpiler.hh"

#include <sstream>

#include "compile/pipelines.hh"

namespace qra {

std::string
TranspileResult::str() const
{
    std::ostringstream os;
    os << "transpiled: " << circuit.size() << " ops, depth "
       << circuit.depth() << ", swaps " << insertedSwaps
       << ", reversed CX " << reversedCx << ", cancelled "
       << cancelledGates;
    return os.str();
}

TranspileResult
transpile(const Circuit &circuit, const CouplingMap &map)
{
    compile::CompileContext ctx =
        compile::transpilePipeline().run(circuit, &map);

    TranspileResult result;
    result.circuit = std::move(ctx.circuit);
    result.circuit.setName(circuit.name() + "@" +
                           std::to_string(map.numQubits()) + "q");
    result.initialLayout = std::move(*ctx.initialLayout);
    result.finalLayout = std::move(*ctx.finalLayout);
    result.insertedSwaps = ctx.insertedSwaps;
    result.reversedCx = ctx.reversedCx;
    result.cancelledGates = ctx.cancelledGates;
    return result;
}

} // namespace qra
