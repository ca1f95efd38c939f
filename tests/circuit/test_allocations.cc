/**
 * @file
 * Heap allocations of the circuit IR and of one compile_fresh-shaped
 * prepare, counted by a replaced global operator new (the library
 * itself has no allocation hooks).
 *
 * An Operation with at most three operands and three angles owns no
 * heap memory, so copying a circuit allocates its op array and nothing
 * else, and appending to a reserved circuit allocates nothing. The
 * prepare bound pins what the compile passes allocate per circuit: a
 * change that raises it must raise the bound in the same change, so
 * the cost shows in review instead of drifting in.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "compile/pipelines.hh"
#include "transpile/coupling_map.hh"

namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// GCC 12 reports the std::free below as freeing memory from operator
// new (-Wmismatched-new-delete) once it inlines both replacements; both
// use the malloc family, so the pairs match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace qra {
namespace {

/** Allocations made while @p body runs. */
template <typename Body>
std::size_t
countAllocations(Body &&body)
{
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    body();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

/** 1,000 ops of one to three operands, angles on some. */
Circuit
thousandOps()
{
    Circuit c(8, 8);
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const Qubit a = static_cast<Qubit>(rng.below(8));
        const Qubit b = static_cast<Qubit>((a + 1 + rng.below(3)) % 8);
        const Qubit t = static_cast<Qubit>((a + 4 + rng.below(4)) % 8);
        switch (i % 6) {
          case 0: c.h(a); break;
          case 1: c.cx(a, b); break;
          case 2: c.rz(0.1 * i, a); break;
          case 3: c.u(0.1, 0.2 * i, 0.3, b); break;
          case 4: c.ccx(a, b, t); break;
          default: c.measure(a, b); break;
        }
    }
    return c;
}

TEST(Allocations, CircuitCopyAllocatesOnlyItsOpArray)
{
    const Circuit source = thousandOps();
    ASSERT_EQ(source.size(), 1000u);
    std::vector<Circuit> copies;
    copies.reserve(1);
    EXPECT_EQ(countAllocations([&] { copies.push_back(source); }), 1u);
    EXPECT_EQ(copies.front(), source);
}

TEST(Allocations, AppendToReservedCircuitAllocatesNothing)
{
    const Circuit source = thousandOps();
    Circuit target(8, 8);
    target.reserve(source.size());
    EXPECT_EQ(countAllocations([&] {
                  for (const Operation &op : source.ops())
                      target.append(op);
              }),
              0u);
    EXPECT_EQ(target, source);
}

/** Undirected 5x5 grid, the compile_fresh device. */
CouplingMap
grid5x5()
{
    CouplingMap map(25);
    for (Qubit r = 0; r < 5; ++r)
        for (Qubit c = 0; c < 5; ++c) {
            const Qubit here = r * 5 + c;
            if (c + 1 < 5) {
                map.addEdge(here, here + 1);
                map.addEdge(here + 1, here);
            }
            if (r + 1 < 5) {
                map.addEdge(here, here + 5);
                map.addEdge(here + 5, here);
            }
        }
    return map;
}

/**
 * A compile_fresh-shaped payload: 12 qubits, 300 Clifford gates in
 * blocks whose final state the analyzer names (two GHZ blocks scrambled
 * by diagonal gates and SWAPs, two |+>/|-> qubits, a basis-state block
 * scrambled by X/CX/SWAP), interleaved in proportion to each block's
 * remaining budget, then every qubit measured.
 */
Circuit
freshClifford(std::uint64_t seed)
{
    struct Block
    {
        Qubit first;
        Qubit size;
        enum { Ghz, Plus, Basis } type;
        std::uint64_t gates;
    };
    Block blocks[] = {{0, 4, Block::Ghz, 80},
                      {4, 3, Block::Ghz, 60},
                      {7, 1, Block::Plus, 10},
                      {8, 1, Block::Plus, 10},
                      {9, 3, Block::Basis, 140}};
    Circuit c(12, 12);
    std::uint64_t total = 0;
    for (const Block &b : blocks) {
        total += b.gates;
        if (b.type == Block::Basis)
            continue;
        c.h(b.first);
        for (Qubit k = 1; k < b.size; ++k)
            c.cx(b.first + k - 1, b.first + k);
    }
    Rng rng(seed);
    for (; total > 0; --total) {
        std::uint64_t r = rng.below(total);
        Block *b = blocks;
        while (r >= b->gates)
            r -= (b++)->gates;
        --b->gates;
        const Qubit a = b->first + static_cast<Qubit>(rng.below(b->size));
        const Qubit o =
            b->size > 1 ? b->first + (a - b->first + 1) % b->size : a;
        switch (b->type) {
          case Block::Ghz:
            switch (rng.below(5)) {
              case 0: c.cz(a, o); break;
              case 1: c.swap(a, o); break;
              case 2: c.z(a); break;
              case 3: c.s(a); break;
              default: c.sdg(a); break;
            }
            break;
          case Block::Plus:
            if (rng.below(2))
                c.x(a);
            else
                c.z(a);
            break;
          case Block::Basis:
            switch (rng.below(4)) {
              case 0: case 1: c.cx(a, o); break;
              case 2: c.swap(a, o); break;
              default: c.x(a); break;
            }
            break;
        }
    }
    return c.measureAll();
}

// A ratchet pinned to one toolchain: measured with GCC 12.2's
// libstdc++ (Debian 12), 2110 allocations with the vector-backed
// Operation of earlier versions, 388 with inline operands. The count
// includes the standard containers' own allocations, so another
// libstdc++ can read a different count for the same code; if it reads
// more, re-measure there and name that compiler here rather than
// loosen the bound unexplained. Under AddressSanitizer, operator new[]
// (wide barriers) bypasses the counter, so the count can only read
// lower. A change that raises the count must raise this bound in the
// same change, so the cost is reviewed rather than drifting in.
constexpr std::size_t kPrepareAllocationBound = 388;

TEST(Allocations, CompileFreshPrepareStaysUnderItsBound)
{
    const Circuit payload = freshClifford(301);
    const CouplingMap grid = grid5x5();
    compile::PrepareSpec spec;
    spec.injection = compile::InjectionStrategy::AutoGenerate;
    spec.autoAssert.maxChecks = 4;
    spec.coupling = &grid;
    const compile::PassManager pipeline = compile::preparePipeline(spec);

    // The first run pays for any lazily built static state.
    const compile::CompileContext warm =
        compile::prepare(payload, spec, pipeline);
    ASSERT_NE(warm.instrumented, nullptr);
    EXPECT_EQ(warm.instrumented->checks().size(), 4u);

    std::size_t allocations = 0;
    {
        compile::CompileContext ctx{};
        allocations = countAllocations(
            [&] { ctx = compile::prepare(payload, spec, pipeline); });
        EXPECT_EQ(ctx.circuit, warm.circuit);
    }
    std::printf("prepare: %zu ops -> %zu ops, %zu allocations\n",
                payload.size(), warm.circuit.size(), allocations);
    EXPECT_LE(allocations, kPrepareAllocationBound);
}

} // namespace
} // namespace qra
