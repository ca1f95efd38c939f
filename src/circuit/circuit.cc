#include "circuit/circuit.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"
#include "common/hash.hh"

namespace qra {

Circuit::Circuit(std::size_t num_qubits, std::size_t num_clbits,
                 std::string name)
    : numQubits_(num_qubits), numClbits_(num_clbits),
      name_(std::move(name))
{
    if (num_qubits == 0)
        throw CircuitError("a circuit needs at least one qubit");
    // Backends enforce their own limits (state vector 24, density
    // matrix 12); the IR itself only guards against absurd sizes.
    if (num_qubits > 4096)
        throw CircuitError("qubit count exceeds the IR limit of "
                           "4096");
    // Results pack the classical register into a 64-bit word; cap at
    // 63 so every mask/shift stays well-defined.
    if (num_clbits > 63)
        throw CircuitError("classical register exceeds the 63-bit "
                           "result limit");
}

void
Circuit::validate(const Operation &op) const
{
    const std::size_t expected = opNumQubits(op.kind);
    if (op.kind != OpKind::Barrier && op.qubits.size() != expected)
        throw CircuitError(std::string(opName(op.kind)) + " expects " +
                           std::to_string(expected) + " qubit(s), got " +
                           std::to_string(op.qubits.size()));
    if (op.params.size() != opNumParams(op.kind))
        throw CircuitError(std::string(opName(op.kind)) + " expects " +
                           std::to_string(opNumParams(op.kind)) +
                           " parameter(s)");
    for (Qubit q : op.qubits) {
        if (q >= numQubits_)
            throw CircuitError("qubit index " + std::to_string(q) +
                               " out of range (" +
                               std::to_string(numQubits_) + " qubits)");
    }
    // Multi-qubit operands must be distinct.
    for (std::size_t a = 0; a < op.qubits.size(); ++a)
        for (std::size_t b = a + 1; b < op.qubits.size(); ++b)
            if (op.qubits[a] == op.qubits[b])
                throw CircuitError(std::string(opName(op.kind)) +
                                   ": duplicate qubit operand q" +
                                   std::to_string(op.qubits[a]));
    if (op.kind == OpKind::Measure) {
        if (!op.clbit)
            throw CircuitError("measure requires a classical bit");
        if (*op.clbit >= numClbits_)
            throw CircuitError("classical bit index " +
                               std::to_string(*op.clbit) +
                               " out of range (" +
                               std::to_string(numClbits_) + " clbits)");
    }
    if (op.kind == OpKind::PostSelect &&
        op.postselectValue != 0 && op.postselectValue != 1) {
        throw CircuitError("postselect value must be 0 or 1");
    }
}

std::vector<Operation>
Circuit::takeOps()
{
    std::vector<Operation> ops;
    ops.swap(ops_);
    return ops;
}

Circuit &
Circuit::append(Operation op)
{
    validate(op);
    ops_.push_back(std::move(op));
    return *this;
}

Circuit &
Circuit::insert(std::size_t pos, Operation op)
{
    if (pos > ops_.size())
        throw CircuitError("insert position out of range");
    validate(op);
    ops_.insert(ops_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(op));
    return *this;
}

// Builder one-liners ---------------------------------------------------

Circuit &
Circuit::i(Qubit q)
{
    return append({.kind = OpKind::I, .qubits = {q}});
}

Circuit &
Circuit::x(Qubit q)
{
    return append({.kind = OpKind::X, .qubits = {q}});
}

Circuit &
Circuit::y(Qubit q)
{
    return append({.kind = OpKind::Y, .qubits = {q}});
}

Circuit &
Circuit::z(Qubit q)
{
    return append({.kind = OpKind::Z, .qubits = {q}});
}

Circuit &
Circuit::h(Qubit q)
{
    return append({.kind = OpKind::H, .qubits = {q}});
}

Circuit &
Circuit::s(Qubit q)
{
    return append({.kind = OpKind::S, .qubits = {q}});
}

Circuit &
Circuit::sdg(Qubit q)
{
    return append({.kind = OpKind::Sdg, .qubits = {q}});
}

Circuit &
Circuit::t(Qubit q)
{
    return append({.kind = OpKind::T, .qubits = {q}});
}

Circuit &
Circuit::tdg(Qubit q)
{
    return append({.kind = OpKind::Tdg, .qubits = {q}});
}

Circuit &
Circuit::sx(Qubit q)
{
    return append({.kind = OpKind::SX, .qubits = {q}});
}

Circuit &
Circuit::rx(double theta, Qubit q)
{
    return append({.kind = OpKind::RX, .qubits = {q}, .params = {theta}});
}

Circuit &
Circuit::ry(double theta, Qubit q)
{
    return append({.kind = OpKind::RY, .qubits = {q}, .params = {theta}});
}

Circuit &
Circuit::rz(double theta, Qubit q)
{
    return append({.kind = OpKind::RZ, .qubits = {q}, .params = {theta}});
}

Circuit &
Circuit::p(double lambda, Qubit q)
{
    return append({.kind = OpKind::P, .qubits = {q}, .params = {lambda}});
}

Circuit &
Circuit::u(double theta, double phi, double lambda, Qubit q)
{
    return append({.kind = OpKind::U, .qubits = {q},
                   .params = {theta, phi, lambda}});
}

Circuit &
Circuit::cx(Qubit control, Qubit target)
{
    return append({.kind = OpKind::CX, .qubits = {control, target}});
}

Circuit &
Circuit::cy(Qubit control, Qubit target)
{
    return append({.kind = OpKind::CY, .qubits = {control, target}});
}

Circuit &
Circuit::cz(Qubit a, Qubit b)
{
    return append({.kind = OpKind::CZ, .qubits = {a, b}});
}

Circuit &
Circuit::swap(Qubit a, Qubit b)
{
    return append({.kind = OpKind::Swap, .qubits = {a, b}});
}

Circuit &
Circuit::ccx(Qubit c0, Qubit c1, Qubit target)
{
    return append({.kind = OpKind::CCX, .qubits = {c0, c1, target}});
}

Circuit &
Circuit::measure(Qubit q, Clbit c)
{
    return append({.kind = OpKind::Measure, .qubits = {q}, .clbit = c});
}

Circuit &
Circuit::measureAll()
{
    if (numClbits_ < numQubits_)
        throw CircuitError("measureAll needs as many clbits as qubits");
    for (Qubit q = 0; q < numQubits_; ++q)
        measure(q, q);
    return *this;
}

Circuit &
Circuit::reset(Qubit q)
{
    return append({.kind = OpKind::Reset, .qubits = {q}});
}

Circuit &
Circuit::barrier()
{
    std::vector<Qubit> all(numQubits_);
    for (Qubit q = 0; q < numQubits_; ++q)
        all[q] = q;
    return barrier(all);
}

Circuit &
Circuit::barrier(const std::vector<Qubit> &qubits)
{
    return append({.kind = OpKind::Barrier, .qubits = qubits});
}

Circuit &
Circuit::postSelect(Qubit q, int value)
{
    Operation op{.kind = OpKind::PostSelect, .qubits = {q}};
    op.postselectValue = value;
    return append(std::move(op));
}

Circuit &
Circuit::compose(const Circuit &other, const std::vector<Qubit> &qubit_map,
                 const std::vector<Clbit> &clbit_map)
{
    if (qubit_map.size() != other.numQubits())
        throw CircuitError("compose: qubit map size mismatch");
    if (!clbit_map.empty() && clbit_map.size() != other.numClbits())
        throw CircuitError("compose: clbit map size mismatch");

    for (const Operation &op : other.ops_) {
        Operation mapped = op;
        for (auto &q : mapped.qubits)
            q = qubit_map.at(q);
        if (mapped.clbit) {
            if (clbit_map.empty())
                throw CircuitError("compose: measurement requires a "
                                   "clbit map");
            mapped.clbit = clbit_map.at(*mapped.clbit);
        }
        append(std::move(mapped));
    }
    return *this;
}

Circuit &
Circuit::compose(const Circuit &other)
{
    if (other.numQubits() > numQubits_ || other.numClbits() > numClbits_)
        throw CircuitError("compose: target circuit too small");
    for (const Operation &op : other.ops_)
        append(op);
    return *this;
}

std::size_t
Circuit::depth() const
{
    std::vector<std::size_t> qubit_level(numQubits_, 0);
    std::vector<std::size_t> clbit_level(numClbits_, 0);

    std::size_t depth = 0;
    for (const Operation &op : ops_) {
        // Barriers are scheduling fences, not time steps; depth
        // ignores them entirely (moment scheduling honours them).
        if (op.kind == OpKind::Barrier)
            continue;

        std::size_t level = 0;
        for (Qubit q : op.qubits)
            level = std::max(level, qubit_level[q]);
        if (op.clbit)
            level = std::max(level, clbit_level[*op.clbit]);

        const std::size_t next = level + 1;
        for (Qubit q : op.qubits)
            qubit_level[q] = next;
        if (op.clbit)
            clbit_level[*op.clbit] = next;
        depth = std::max(depth, next);
    }
    return depth;
}

std::map<std::string, std::size_t>
Circuit::countOps() const
{
    std::map<std::string, std::size_t> counts;
    for (const Operation &op : ops_)
        ++counts[opName(op.kind)];
    return counts;
}

std::size_t
Circuit::twoQubitGateCount() const
{
    std::size_t count = 0;
    for (const Operation &op : ops_)
        if (opIsUnitary(op.kind) && op.qubits.size() >= 2)
            ++count;
    return count;
}

Circuit
Circuit::inverse() const
{
    Circuit inv(numQubits_, numClbits_, name_ + "_inv");
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
        if (it->kind == OpKind::Barrier) {
            inv.append(*it);
            continue;
        }
        inv.append(it->inverse());
    }
    return inv;
}

Qubit
Circuit::addQubits(std::size_t count)
{
    // Compare against the room left, so a huge count cannot wrap.
    if (count > 4096 - numQubits_)
        throw CircuitError("qubit count exceeds the IR limit of "
                           "4096");
    const Qubit first = static_cast<Qubit>(numQubits_);
    numQubits_ += count;
    return first;
}

Clbit
Circuit::addClbits(std::size_t count)
{
    if (count > 63 - numClbits_)
        throw CircuitError("classical register exceeds the 63-bit "
                           "result limit");
    const Clbit first = static_cast<Clbit>(numClbits_);
    numClbits_ += count;
    return first;
}

bool
Circuit::operator==(const Circuit &rhs) const
{
    return numQubits_ == rhs.numQubits_ && numClbits_ == rhs.numClbits_ &&
           ops_ == rhs.ops_;
}

std::uint64_t
Circuit::hash() const
{
    // FNV-1a over the semantic content of the circuit.
    std::uint64_t h = kFnv1aOffset;
    auto mix = [&h](std::uint64_t value) {
        h = fnv1aMix64(h, value);
    };
    mix(numQubits_);
    mix(numClbits_);
    for (const Operation &op : ops_) {
        mix(static_cast<std::uint64_t>(op.kind));
        mix(op.qubits.size());
        for (const Qubit q : op.qubits)
            mix(static_cast<std::uint64_t>(q));
        mix(op.params.size());
        for (const double p : op.params) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &p, sizeof bits);
            mix(bits);
        }
        mix(op.clbit ? 1 + static_cast<std::uint64_t>(*op.clbit) : 0);
        mix(static_cast<std::uint64_t>(op.postselectValue));
    }
    return h;
}

} // namespace qra
