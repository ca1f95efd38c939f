/**
 * @file
 * The Circuit IR: an ordered list of Operations over a quantum and a
 * classical register, with a fluent builder interface.
 *
 * Qubits are little-endian everywhere in the library: qubit 0 is bit 0
 * of any basis index, and classical bit 0 is the rightmost character
 * of a rendered outcome bitstring (matching the paper's tables, which
 * print e.g. "q1q2" most-significant first).
 */

#ifndef QRA_CIRCUIT_CIRCUIT_HH
#define QRA_CIRCUIT_CIRCUIT_HH

#include <map>
#include <string>
#include <vector>

#include "circuit/gate.hh"
#include "math/types.hh"

namespace qra {

/** An ordered quantum program over n qubits and m classical bits. */
class Circuit
{
  public:
    /**
     * Create an empty circuit.
     *
     * @param num_qubits Size of the quantum register.
     * @param num_clbits Size of the classical register (default 0).
     * @param name Optional circuit name used in diagrams and QASM.
     */
    explicit Circuit(std::size_t num_qubits, std::size_t num_clbits = 0,
                     std::string name = "circuit");

    std::size_t numQubits() const { return numQubits_; }
    std::size_t numClbits() const { return numClbits_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Instruction sequence, in program order. */
    const std::vector<Operation> &ops() const { return ops_; }

    /** Number of instructions. */
    std::size_t size() const { return ops_.size(); }

    bool empty() const { return ops_.empty(); }

    // --- Builder interface -------------------------------------------

    Circuit &i(Qubit q);
    Circuit &x(Qubit q);
    Circuit &y(Qubit q);
    Circuit &z(Qubit q);
    Circuit &h(Qubit q);
    Circuit &s(Qubit q);
    Circuit &sdg(Qubit q);
    Circuit &t(Qubit q);
    Circuit &tdg(Qubit q);
    Circuit &sx(Qubit q);
    Circuit &rx(double theta, Qubit q);
    Circuit &ry(double theta, Qubit q);
    Circuit &rz(double theta, Qubit q);
    Circuit &p(double lambda, Qubit q);
    Circuit &u(double theta, double phi, double lambda, Qubit q);
    Circuit &cx(Qubit control, Qubit target);
    Circuit &cy(Qubit control, Qubit target);
    Circuit &cz(Qubit a, Qubit b);
    Circuit &swap(Qubit a, Qubit b);
    Circuit &ccx(Qubit c0, Qubit c1, Qubit target);
    Circuit &measure(Qubit q, Clbit c);
    /** Measure qubit i into classical bit i for all qubits. */
    Circuit &measureAll();
    Circuit &reset(Qubit q);
    /** Barrier over all qubits (scheduling fence). */
    Circuit &barrier();
    /** Barrier over a subset of qubits. */
    Circuit &barrier(const std::vector<Qubit> &qubits);
    /** Simulator-only: post-select @p q onto outcome @p value. */
    Circuit &postSelect(Qubit q, int value);

    /**
     * Move the instruction list out, leaving the circuit empty (its
     * registers and name stay). Lets a rewrite pass consume its input
     * instead of copying every Operation.
     */
    std::vector<Operation> takeOps();

    /** Make room for @p count instructions in total. */
    void reserve(std::size_t count) { ops_.reserve(count); }

    /** Append a pre-built operation (validated). */
    Circuit &append(Operation op);

    /** Insert an operation at instruction index @p pos. */
    Circuit &insert(std::size_t pos, Operation op);

    /**
     * Append every instruction of @p other, mapping its qubit i to
     * qubit_map[i] and classical bit j to clbit_map[j].
     */
    Circuit &compose(const Circuit &other,
                     const std::vector<Qubit> &qubit_map,
                     const std::vector<Clbit> &clbit_map = {});

    /** Append @p other verbatim (registers must be large enough). */
    Circuit &compose(const Circuit &other);

    // --- Analysis -----------------------------------------------------

    /**
     * Circuit depth: the longest chain of instructions over shared
     * qubits/clbits. Barriers fence scheduling but add no depth.
     */
    std::size_t depth() const;

    /** Instruction count per mnemonic, e.g. {"cx": 3, "h": 2}. */
    std::map<std::string, std::size_t> countOps() const;

    /** Total count of 2+ qubit gates (the NISQ cost driver). */
    std::size_t twoQubitGateCount() const;

    /**
     * Inverse circuit: unitary instructions reversed and inverted.
     * @throws CircuitError if the circuit contains non-unitary ops.
     */
    Circuit inverse() const;

    /**
     * Widen the circuit by appending fresh qubits/clbits at the top
     * indices. Existing instructions are unaffected.
     * @return Index of the first newly added qubit.
     * @throws CircuitError past 4096 qubits (63 clbits); the circuit
     *         is then left as it was.
     */
    Qubit addQubits(std::size_t count);

    /** @return Index of the first newly added classical bit. */
    Clbit addClbits(std::size_t count);

    /** ASCII-art circuit diagram. */
    std::string draw() const;

    bool operator==(const Circuit &rhs) const;

    /**
     * Semantic 64-bit hash: register widths plus every instruction's
     * kind, operands, parameters, clbit wiring, and post-selection
     * value. Names are excluded, so two circuits that execute
     * identically hash identically. Used as the preparation-cache
     * key in the runtime JobQueue.
     */
    std::uint64_t hash() const;

  private:
    void validate(const Operation &op) const;

    std::size_t numQubits_;
    std::size_t numClbits_;
    std::string name_;
    std::vector<Operation> ops_;
};

} // namespace qra

#endif // QRA_CIRCUIT_CIRCUIT_HH
