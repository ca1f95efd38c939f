#include "circuit/gate.hh"

#include <sstream>

#include "common/error.hh"
#include "math/gates.hh"

namespace qra {

const char *
opName(OpKind kind)
{
    switch (kind) {
      case OpKind::I: return "id";
      case OpKind::X: return "x";
      case OpKind::Y: return "y";
      case OpKind::Z: return "z";
      case OpKind::H: return "h";
      case OpKind::S: return "s";
      case OpKind::Sdg: return "sdg";
      case OpKind::T: return "t";
      case OpKind::Tdg: return "tdg";
      case OpKind::SX: return "sx";
      case OpKind::RX: return "rx";
      case OpKind::RY: return "ry";
      case OpKind::RZ: return "rz";
      case OpKind::P: return "p";
      case OpKind::U: return "u";
      case OpKind::CX: return "cx";
      case OpKind::CY: return "cy";
      case OpKind::CZ: return "cz";
      case OpKind::Swap: return "swap";
      case OpKind::CCX: return "ccx";
      case OpKind::Measure: return "measure";
      case OpKind::Reset: return "reset";
      case OpKind::Barrier: return "barrier";
      case OpKind::PostSelect: return "postselect";
    }
    QRA_PANIC("unhandled OpKind");
}

std::optional<OpKind>
opSelfContainedInverse(OpKind kind)
{
    switch (kind) {
      case OpKind::I: case OpKind::X: case OpKind::Y: case OpKind::Z:
      case OpKind::H: case OpKind::CX: case OpKind::CY: case OpKind::CZ:
      case OpKind::Swap: case OpKind::CCX:
        return kind; // self-inverse
      case OpKind::S: return OpKind::Sdg;
      case OpKind::Sdg: return OpKind::S;
      case OpKind::T: return OpKind::Tdg;
      case OpKind::Tdg: return OpKind::T;
      default:
        return std::nullopt;
    }
}

Matrix
Operation::matrix() const
{
    switch (kind) {
      case OpKind::I: return gates::i1();
      case OpKind::X: return gates::x();
      case OpKind::Y: return gates::y();
      case OpKind::Z: return gates::z();
      case OpKind::H: return gates::h();
      case OpKind::S: return gates::s();
      case OpKind::Sdg: return gates::sdg();
      case OpKind::T: return gates::t();
      case OpKind::Tdg: return gates::tdg();
      case OpKind::SX: return gates::sx();
      case OpKind::RX: return gates::rx(params.at(0));
      case OpKind::RY: return gates::ry(params.at(0));
      case OpKind::RZ: return gates::rz(params.at(0));
      case OpKind::P: return gates::p(params.at(0));
      case OpKind::U:
        return gates::u(params.at(0), params.at(1), params.at(2));
      case OpKind::CX: return gates::cx();
      case OpKind::CY: return gates::cy();
      case OpKind::CZ: return gates::cz();
      case OpKind::Swap: return gates::swap();
      case OpKind::CCX: return gates::ccx();
      default:
        throw CircuitError(std::string("operation '") + opName(kind) +
                           "' has no unitary matrix");
    }
}

Operation
Operation::inverse() const
{
    if (!opIsUnitary(kind))
        throw CircuitError(std::string("cannot invert non-unitary '") +
                           opName(kind) + "'");

    Operation inv = *this;
    if (auto self = opSelfContainedInverse(kind)) {
        inv.kind = *self;
        return inv;
    }

    switch (kind) {
      case OpKind::SX:
        // SX^-1 = SX^3; express as RX(-pi/2) up to global phase.
        inv.kind = OpKind::RX;
        inv.params = {-M_PI / 2.0};
        return inv;
      case OpKind::RX: case OpKind::RY: case OpKind::RZ: case OpKind::P:
        inv.params = {-params.at(0)};
        return inv;
      case OpKind::U:
        // U(t, p, l)^-1 = U(-t, -l, -p).
        inv.params = {-params.at(0), -params.at(2), -params.at(1)};
        return inv;
      default:
        QRA_PANIC("inverse: unhandled unitary kind");
    }
}

std::string
Operation::str() const
{
    std::ostringstream os;
    os << opName(kind);
    if (!params.empty()) {
        os << "(";
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (i)
                os << ", ";
            os << params[i];
        }
        os << ")";
    }
    for (std::size_t i = 0; i < qubits.size(); ++i)
        os << (i ? ", q" : " q") << qubits[i];
    if (kind == OpKind::Measure && clbit)
        os << " -> c" << *clbit;
    if (kind == OpKind::PostSelect)
        os << " == " << postselectValue;
    return os.str();
}

bool
Operation::operator==(const Operation &rhs) const
{
    return kind == rhs.kind && qubits == rhs.qubits &&
           params == rhs.params && clbit == rhs.clbit &&
           postselectValue == rhs.postselectValue;
}

} // namespace qra
