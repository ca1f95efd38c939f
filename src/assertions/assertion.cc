#include "assertions/assertion.hh"

#include "common/error.hh"

namespace qra {

void
Assertion::checkOperands(const std::vector<Qubit> &targets,
                         const std::vector<Qubit> &ancillas,
                         const std::vector<Clbit> &clbits) const
{
    if (targets.size() != numTargets())
        throw AssertionError(describe() + ": expected " +
                             std::to_string(numTargets()) +
                             " target qubit(s), got " +
                             std::to_string(targets.size()));
    if (ancillas.size() != numAncillas())
        throw AssertionError(describe() + ": expected " +
                             std::to_string(numAncillas()) +
                             " ancilla qubit(s), got " +
                             std::to_string(ancillas.size()));
    if (clbits.size() != numAncillas())
        throw AssertionError(describe() + ": expected " +
                             std::to_string(numAncillas()) +
                             " classical bit(s), got " +
                             std::to_string(clbits.size()));
    for (Qubit t : targets)
        for (Qubit a : ancillas)
            if (t == a)
                throw AssertionError(describe() +
                                     ": ancilla overlaps target q" +
                                     std::to_string(t));
}

} // namespace qra
