#include "assertions/directives.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <memory>
#include <optional>
#include <string_view>

#include "assertions/classical_assertion.hh"
#include "assertions/entanglement_assertion.hh"
#include "assertions/superposition_assertion.hh"
#include "circuit/qasm.hh"
#include "common/error.hh"
#include "common/strings.hh"

namespace qra {

namespace {

/** Parse "q[3]" -> 3. */
Qubit
parseQubitToken(std::string_view token)
{
    if (!token.starts_with("q[") || token.back() != ']')
        throw QasmError("expected q[i] in directive, got '" +
                        std::string(token) + "'");
    const std::string_view digits = token.substr(2, token.size() - 3);
    if (digits.empty())
        throw QasmError("empty qubit index in directive");
    for (char c : digits)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            throw QasmError("bad qubit index in directive: '" +
                            std::string(token) + "'");
    Qubit index = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), index)
            .ec != std::errc())
        throw QasmError("qubit index out of range in directive: '" +
                        std::string(token) + "'");
    return index;
}

/** Parse a comma-separated qubit list. */
std::vector<Qubit>
parseQubitList(std::string_view text)
{
    std::vector<Qubit> qubits;
    while (!text.empty()) {
        const std::size_t comma = std::min(text.find(','), text.size());
        const std::string_view piece = trimWhitespace(text.substr(0, comma));
        if (!piece.empty())
            qubits.push_back(parseQubitToken(piece));
        text = text.substr(std::min(comma + 1, text.size()));
    }
    if (qubits.empty())
        throw QasmError("directive names no qubits");
    return qubits;
}

/** @p text after @p prefix, trimmed, or nothing when it lacks it. */
std::optional<std::string_view>
after(std::string_view text, std::string_view prefix)
{
    if (!text.starts_with(prefix))
        return std::nullopt;
    return trimWhitespace(text.substr(prefix.size()));
}

/** Build the spec for one directive body (text after "qra:"). */
AssertionSpec
parseDirective(std::string_view body, std::size_t insert_at)
{
    const std::string text(body);
    AssertionSpec spec;
    spec.insertAt = insert_at;
    spec.label = "qasm: " + text;

    if (const auto rest = after(body, "assert-classical")) {
        const auto eq = rest->find("==");
        if (eq == std::string_view::npos)
            throw QasmError("assert-classical needs '== value': " + text);
        const std::vector<Qubit> qubits =
            parseQubitList(trimWhitespace(rest->substr(0, eq)));
        const std::string value_text(trimWhitespace(rest->substr(eq + 2)));
        const std::uint64_t value = fromBitstring(value_text);
        if (value_text.size() != qubits.size())
            throw QasmError("assert-classical value width must match "
                            "the qubit count: " + text);

        // The directive lists qubits MSB-first (like the rendered
        // value); targets are stored LSB-first.
        std::vector<Qubit> targets(qubits.rbegin(), qubits.rend());
        spec.assertion = std::make_shared<ClassicalAssertion>(
            value, targets.size());
        spec.targets = std::move(targets);
        return spec;
    }

    if (auto rest = after(body, "assert-superposition")) {
        auto target = SuperpositionAssertion::Target::Plus;
        if (!rest->empty() && (rest->back() == '+' || rest->back() == '-')) {
            if (rest->back() == '-')
                target = SuperpositionAssertion::Target::Minus;
            rest = trimWhitespace(rest->substr(0, rest->size() - 1));
        }
        const std::vector<Qubit> qubits = parseQubitList(*rest);
        if (qubits.size() != 1)
            throw QasmError("assert-superposition takes exactly one "
                            "qubit: " + text);
        spec.assertion = std::make_shared<SuperpositionAssertion>(target);
        spec.targets = qubits;
        return spec;
    }

    if (auto rest = after(body, "assert-entangled")) {
        auto parity = EntanglementAssertion::Parity::Even;
        auto mode = EntanglementAssertion::Mode::PairParity;

        auto strip_suffix = [&rest](std::string_view word) {
            if (rest->size() < word.size() ||
                rest->substr(rest->size() - word.size()) != word)
                return false;
            rest = trimWhitespace(rest->substr(0, rest->size() - word.size()));
            return true;
        };
        for (bool progressed = true; progressed;) {
            progressed = false;
            if (strip_suffix("chain")) {
                mode = EntanglementAssertion::Mode::Chain;
                progressed = true;
            }
            if (strip_suffix("odd")) {
                parity = EntanglementAssertion::Parity::Odd;
                progressed = true;
            }
            if (strip_suffix("even"))
                progressed = true;
        }

        const std::vector<Qubit> qubits = parseQubitList(*rest);
        spec.assertion = std::make_shared<EntanglementAssertion>(
            qubits.size(), parity, mode);
        spec.targets = qubits;
        return spec;
    }

    throw QasmError("unknown qra directive: " + text);
}

} // namespace

AnnotatedProgram
parseAnnotatedQasm(const std::string &text)
{
    std::vector<detail::QasmDirective> directives;
    AnnotatedProgram program;
    program.payload = detail::readQasm(text, &directives);
    for (const detail::QasmDirective &d : directives)
        program.specs.push_back(parseDirective(d.body, d.opIndex));
    return program;
}

} // namespace qra
