#include "circuit/qasm.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <list>
#include <sstream>

#include "common/error.hh"
#include "common/strings.hh"

namespace qra {

// --- Export ------------------------------------------------------------

std::string
toQasm(const Circuit &circuit)
{
    std::ostringstream os;
    // Full round-trip precision for gate parameters.
    os.precision(17);
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "qreg q[" << circuit.numQubits() << "];\n";
    if (circuit.numClbits() > 0)
        os << "creg c[" << circuit.numClbits() << "];\n";

    for (const Operation &op : circuit.ops()) {
        switch (op.kind) {
          case OpKind::Measure:
            os << "measure q[" << op.qubits[0] << "] -> c["
               << *op.clbit << "];\n";
            continue;
          case OpKind::PostSelect:
            os << "// qra:postselect q[" << op.qubits[0] << "] == "
               << op.postselectValue << "\n";
            continue;
          case OpKind::Barrier:
            os << "barrier";
            for (std::size_t i = 0; i < op.qubits.size(); ++i)
                os << (i ? ", q[" : " q[") << op.qubits[i] << "]";
            os << ";\n";
            continue;
          default:
            break;
        }

        os << opName(op.kind);
        if (!op.params.empty()) {
            os << "(";
            for (std::size_t i = 0; i < op.params.size(); ++i) {
                if (i)
                    os << ", ";
                os << op.params[i];
            }
            os << ")";
        }
        for (std::size_t i = 0; i < op.qubits.size(); ++i)
            os << (i ? ", q[" : " q[") << op.qubits[i] << "]";
        os << ";\n";
    }
    return os.str();
}

// --- Import ------------------------------------------------------------

namespace {

/** std::isdigit and std::isalnum in the "C" locale. */
bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isAlnum(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/**
 * Call @p fn on each @p delim-separated piece of @p s, trimmed. Like
 * std::getline splitting, an empty final piece is not a piece.
 */
template <typename Fn>
void
forEachPiece(std::string_view s, char delim, Fn &&fn)
{
    std::size_t begin = 0;
    while (begin < s.size()) {
        std::size_t end = s.find(delim, begin);
        if (end == std::string_view::npos)
            end = s.size();
        fn(trimWhitespace(s.substr(begin, end - begin)));
        begin = end + 1;
    }
}

/** Recursive-descent evaluator for QASM parameter expressions. */
class ExprParser
{
  public:
    explicit ExprParser(std::string_view text) : text_(text) {}

    double
    parse()
    {
        const double v = expr();
        skipWs();
        if (pos_ != text_.size())
            throw QasmError("trailing characters in expression: '" +
                            std::string(text_) + "'");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    double
    expr()
    {
        double v = term();
        for (;;) {
            if (consume('+'))
                v += term();
            else if (consume('-'))
                v -= term();
            else
                return v;
        }
    }

    double
    term()
    {
        double v = unary();
        for (;;) {
            if (consume('*'))
                v *= unary();
            else if (consume('/')) {
                const double d = unary();
                if (d == 0.0)
                    throw QasmError("division by zero in expression");
                v /= d;
            } else {
                return v;
            }
        }
    }

    double
    unary()
    {
        if (consume('-'))
            return -unary();
        if (consume('+'))
            return unary();
        return atom();
    }

    double
    atom()
    {
        skipWs();
        if (consume('(')) {
            const double v = expr();
            if (!consume(')'))
                throw QasmError("missing ')' in expression");
            return v;
        }
        if (text_.substr(pos_).starts_with("pi")) {
            pos_ += 2;
            return M_PI;
        }
        std::size_t end = pos_;
        while (end < text_.size() &&
               (isDigit(text_[end]) ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E' ||
                ((text_[end] == '+' || text_[end] == '-') && end > pos_ &&
                 (text_[end - 1] == 'e' || text_[end - 1] == 'E')))) {
            ++end;
        }
        // from_chars rounds correctly, as strtod does, and reads the
        // longest number the span starts with.
        double v = 0.0;
        const std::errc ec =
            std::from_chars(text_.data() + pos_, text_.data() + end, v).ec;
        if (ec == std::errc::result_out_of_range)
            throw QasmError("number out of range in expression: '" +
                            std::string(text_) + "'");
        if (ec != std::errc())
            throw QasmError("expected number in expression: '" +
                            std::string(text_) + "'");
        pos_ = end;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Parse "q[3]" into the index 3, validating the register name. */
Qubit
parseRegIndex(std::string_view token, char reg)
{
    if (token.size() < 3 || token[0] != reg || token[1] != '[' ||
        token.back() != ']')
        throw QasmError(std::string("expected ") + reg + "[i], got '" +
                        std::string(token) + "'");
    const std::string_view digits = token.substr(2, token.size() - 3);
    if (digits.empty())
        throw QasmError("empty register index in '" + std::string(token) +
                        "'");
    for (char c : digits)
        if (!isDigit(c))
            throw QasmError("bad register index in '" +
                            std::string(token) + "'");
    Qubit index = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), index)
            .ec != std::errc())
        throw QasmError("register index out of range in '" +
                        std::string(token) + "'");
    return index;
}

OpKind
kindFromName(std::string_view name)
{
    static constexpr std::pair<std::string_view, OpKind> table[] = {
        {"id", OpKind::I},   {"x", OpKind::X},     {"y", OpKind::Y},
        {"z", OpKind::Z},    {"h", OpKind::H},     {"s", OpKind::S},
        {"sdg", OpKind::Sdg}, {"t", OpKind::T},    {"tdg", OpKind::Tdg},
        {"sx", OpKind::SX},  {"rx", OpKind::RX},   {"ry", OpKind::RY},
        {"rz", OpKind::RZ},  {"p", OpKind::P},     {"u", OpKind::U},
        {"u3", OpKind::U},   {"u1", OpKind::P},    {"cx", OpKind::CX},
        {"cy", OpKind::CY},  {"cz", OpKind::CZ},   {"swap", OpKind::Swap},
        {"ccx", OpKind::CCX}, {"reset", OpKind::Reset},
    };
    for (const auto &[n, k] : table)
        if (name == n)
            return k;
    throw QasmError("unknown gate '" + std::string(name) + "'");
}

/** "// qra:postselect q[i] == v", trimmed, from its "//". */
void
applyPostSelect(Circuit &circuit, std::string_view directive)
{
    // Whitespace-separated fields after the 17-character marker, read
    // as `is >> qubit >> "==" >> value` would read them.
    std::string_view rest = directive.substr(17);
    auto field = [&rest]() {
        std::size_t b = 0;
        while (b < rest.size() && isSpace(rest[b]))
            ++b;
        std::size_t e = b;
        while (e < rest.size() && !isSpace(rest[e]))
            ++e;
        const std::string_view out = rest.substr(b, e - b);
        rest = rest.substr(e);
        return out;
    };
    const std::string_view qubit = field();
    if (field() != "==")
        throw QasmError("malformed postselect directive: " +
                        std::string(directive));
    const std::string_view value = trimWhitespace(rest);
    int v = 0;
    const char *first = value.data();
    if (value.starts_with("+") && !value.substr(1).starts_with("-"))
        ++first;
    // Unreadable reads 0, as a failed stream read does; an int
    // overflow is an invalid value either way.
    if (std::from_chars(first, value.data() + value.size(), v).ec ==
        std::errc::result_out_of_range)
        v = -1;
    circuit.postSelect(parseRegIndex(qubit, 'q'), v);
}

/** An operand that names a whole register: OpenQASM 2 broadcast. */
constexpr Qubit kWholeRegister = std::numeric_limits<Qubit>::max();

/** "q[i]" as i, or the bare register name as kWholeRegister. */
Qubit
parseOperand(std::string_view token, char reg)
{
    if (token.size() == 1 && token[0] == reg)
        return kWholeRegister;
    const Qubit index = parseRegIndex(token, reg);
    if (index == kWholeRegister) // no register is that wide
        throw QasmError("register index out of range in '" +
                        std::string(token) + "'");
    return index;
}

/**
 * Appends @p op once per index of the register, with that index in
 * every whole-register operand, as OpenQASM 2 broadcasts "h q;" (with
 * one register, a gate that also names one of its qubits repeats it
 * and is rejected as a duplicate operand).
 */
void
appendBroadcast(Circuit &circuit, Operation op)
{
    const Operands operands = op.qubits;
    for (Qubit i = 0; i < circuit.numQubits(); ++i) {
        for (std::size_t k = 0; k < operands.size(); ++k)
            op.qubits[k] = operands[k] == kWholeRegister ? i : operands[k];
        circuit.append(op);
    }
}

/** Operand and angle buffers one reader reuses across statements. */
struct StatementScratch
{
    std::vector<Qubit> qubits;
    std::vector<double> params;
};

/** Apply one trimmed, non-empty, non-declaration statement. */
void
applyStatement(Circuit &circuit, std::string_view s,
               StatementScratch &scratch)
{
    // The first-letter tests only spare most ops the prefix compare.
    if (s[0] == 'm' && s.starts_with("measure")) {
        const std::string_view rest = trimWhitespace(s.substr(7));
        const auto arrow = rest.find("->");
        if (arrow == std::string_view::npos)
            throw QasmError("measure without '->': " + std::string(s));
        const Qubit q =
            parseOperand(trimWhitespace(rest.substr(0, arrow)), 'q');
        const Clbit c =
            parseOperand(trimWhitespace(rest.substr(arrow + 2)), 'c');
        if ((q == kWholeRegister) != (c == kWholeRegister))
            throw QasmError("measure needs two registers or two bits: " +
                            std::string(s));
        if (q != kWholeRegister) {
            circuit.measure(q, c);
            return;
        }
        // "measure q -> c;" measures q[i] into c[i] for every i.
        if (circuit.numQubits() != circuit.numClbits())
            throw QasmError("measure registers differ in size: q[" +
                            std::to_string(circuit.numQubits()) +
                            "] -> c[" +
                            std::to_string(circuit.numClbits()) + "]");
        for (Qubit i = 0; i < circuit.numQubits(); ++i)
            circuit.measure(i, i);
        return;
    }

    std::vector<Qubit> &qubits = scratch.qubits;
    qubits.clear();
    bool broadcast = false;
    auto read_qubits = [&qubits, &broadcast](std::string_view operands) {
        forEachPiece(operands, ',', [&](std::string_view tok) {
            if (tok.empty())
                return;
            qubits.push_back(parseOperand(tok, 'q'));
            broadcast |= qubits.back() == kWholeRegister;
        });
    };

    if (s[0] == 'b' && s.starts_with("barrier")) {
        // One barrier over its operands; the whole register fences all.
        read_qubits(trimWhitespace(s.substr(7)));
        if (broadcast) {
            circuit.barrier();
            return;
        }
        circuit.append({.kind = OpKind::Barrier, .qubits = qubits});
        return;
    }

    // Generic gate: name[(params)] operand[, operand...]
    std::size_t name_end = 0;
    while (name_end < s.size() && isAlnum(s[name_end]))
        ++name_end;
    const std::string_view name = s.substr(0, name_end);
    std::string_view rest = trimWhitespace(s.substr(name_end));

    std::vector<double> &params = scratch.params;
    params.clear();
    if (!rest.empty() && rest[0] == '(') {
        // Find the matching close paren (params may nest).
        std::size_t depth = 0;
        std::size_t close = std::string_view::npos;
        for (std::size_t i = 0; i < rest.size(); ++i) {
            if (rest[i] == '(') {
                ++depth;
            } else if (rest[i] == ')') {
                if (--depth == 0) {
                    close = i;
                    break;
                }
            }
        }
        if (close == std::string_view::npos)
            throw QasmError("missing ')' in: " + std::string(s));
        forEachPiece(rest.substr(1, close - 1), ',',
                     [&params](std::string_view e) {
                         params.push_back(ExprParser(e).parse());
                     });
        rest = trimWhitespace(rest.substr(close + 1));
    }
    read_qubits(rest);

    // qelib1 aliases: u3 == u and u1 == p map via the name table;
    // u2(phi, lambda) = u(pi/2, phi, lambda) needs rewriting.
    OpKind kind = OpKind::U;
    if (name == "u2") {
        if (params.size() != 2)
            throw QasmError("u2 expects 2 parameters");
        params = {M_PI / 2.0, params[0], params[1]};
    } else {
        kind = kindFromName(name);
    }
    if (broadcast) {
        appendBroadcast(circuit,
                        {.kind = kind, .qubits = qubits, .params = params});
        return;
    }
    circuit.append({.kind = kind, .qubits = qubits, .params = params});
}

} // namespace

namespace detail {

Circuit
readQasm(std::string_view text, std::vector<QasmDirective> *directives)
{
    // One walk over the text collects the instruction-emitting items
    // in order and reads the register declarations; the circuit is
    // built once both registers are known, so declaration errors come
    // first, as for a program whose qreg follows its gates.
    struct Item
    {
        std::string_view text;
        bool postselect;
    };
    std::vector<Item> items;
    items.reserve(std::count(text.begin(), text.end(), ';'));
    // A statement a comment interrupts is re-joined here (rare); list
    // elements never move, so views into them stay valid.
    std::list<std::string> joined;
    std::string pending;

    std::size_t num_qubits = 0;
    std::size_t num_clbits = 0;
    std::size_t qreg_seen = 0;
    std::size_t creg_seen = 0;

    auto end_statement = [&](std::string_view tail) {
        std::string_view stmt = tail;
        if (!pending.empty()) {
            pending.append(tail);
            joined.push_back(std::move(pending));
            pending.clear();
            stmt = joined.back();
        }
        stmt = trimWhitespace(stmt);
        if (stmt.empty())
            return;
        switch (stmt[0]) {
          case 'O':
            if (stmt.starts_with("OPENQASM"))
                return;
            break;
          case 'i':
            if (stmt.starts_with("include"))
                return;
            break;
          case 'q':
            if (stmt.starts_with("qreg")) {
                num_qubits =
                    parseRegIndex(trimWhitespace(stmt.substr(4)), 'q');
                ++qreg_seen;
                return;
            }
            break;
          case 'c':
            if (stmt.starts_with("creg")) {
                num_clbits =
                    parseRegIndex(trimWhitespace(stmt.substr(4)), 'c');
                ++creg_seen;
                return;
            }
            break;
        }
        items.push_back({stmt, false});
    };

    // The next ';' and "//" at or after the open statement's start;
    // whichever comes first ends the statement or starts a comment.
    std::size_t start = 0;
    std::size_t semi = text.find(';');
    std::size_t slash = text.find("//");
    for (;;) {
        if (slash < semi) {
            // A line comment: keep the open statement's text so far
            // (the line break after the comment still separates it),
            // then read the comment as a directive if it is one.
            const std::size_t eol =
                std::min(text.find('\n', slash), text.size());
            const std::string_view head =
                text.substr(start, slash - start);
            if (!pending.empty() || !trimWhitespace(head).empty())
                pending.append(head);
            const std::string_view comment =
                text.substr(slash, eol - slash);
            const auto marker = comment.find("// qra:");
            if (marker != std::string_view::npos) {
                if (comment.substr(marker + 7).starts_with("postselect"))
                    items.push_back(
                        {trimWhitespace(comment.substr(marker)), true});
                else if (directives)
                    directives->push_back(
                        {trimWhitespace(comment.substr(marker + 7)),
                         items.size()});
            }
            start = eol;
            slash = text.find("//", eol);
            if (semi < eol) // the ';' was inside the comment
                semi = text.find(';', eol);
            continue;
        }
        if (semi == std::string_view::npos)
            break;
        end_statement(text.substr(start, semi - start));
        start = semi + 1;
        semi = text.find(';', start);
    }
    end_statement(text.substr(start));

    if (qreg_seen != 1)
        throw QasmError("expected exactly one qreg declaration");
    if (creg_seen > 1)
        throw QasmError("expected at most one creg declaration");
    if (num_qubits == 0)
        throw QasmError("qreg must declare at least one qubit");

    Circuit circuit(num_qubits, num_clbits, "qasm");
    circuit.reserve(items.size());
    StatementScratch scratch;
    for (const Item &item : items) {
        if (item.postselect)
            applyPostSelect(circuit, item.text);
        else
            applyStatement(circuit, item.text, scratch);
    }
    return circuit;
}

} // namespace detail

Circuit
fromQasm(const std::string &text)
{
    return detail::readQasm(text, nullptr);
}

} // namespace qra
