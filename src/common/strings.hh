/**
 * @file
 * String and bitstring helpers shared across modules.
 *
 * Bitstring convention: the library renders measurement outcomes the
 * way the paper's tables do, most-significant classical bit first.
 * Classical bit 0 is therefore the *rightmost* character, matching
 * the usual little-endian qubit-0-is-LSB convention.
 */

#ifndef QRA_COMMON_STRINGS_HH
#define QRA_COMMON_STRINGS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qra {

/**
 * Render the low @p width bits of @p value as a bitstring,
 * most-significant bit first (e.g. value 2, width 3 -> "010").
 */
std::string toBitstring(std::uint64_t value, std::size_t width);

/**
 * Parse a bitstring (MSB first) back into an integer.
 * @throws ValueError if the string contains non-binary characters.
 */
std::uint64_t fromBitstring(const std::string &bits);

/** std::isspace in the "C" locale: space, \t, \n, \v, \f, \r. */
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** @p s without leading and trailing whitespace (a view into @p s). */
constexpr std::string_view
trimWhitespace(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** printf-style double formatting, e.g. formatDouble(0.1234, 1) "12.3". */
std::string formatPercent(double fraction, int decimals = 1);

/** Fixed-decimals rendering of a double. */
std::string formatDouble(double value, int decimals = 4);

} // namespace qra

#endif // QRA_COMMON_STRINGS_HH
