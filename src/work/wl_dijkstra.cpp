// Dijkstra (MiBench network/dijkstra): single-source shortest paths on an
// adjacency matrix, O(N^2) scan without a heap — exactly the MiBench
// implementation style.
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_dijkstra(int scale) {
  const int n = 48;
  const int sources = 12 * scale;
  uint32_t seed = 0xD1735AAu;
  // Weighted digraph: ~35% density, weights 1..100; 0 = no edge.
  std::vector<uint32_t> adj(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const uint32_t r = golden::lcg(seed);
      if (r % 100 < 35) adj[static_cast<size_t>(i) * n + j] = r % 100 + 1;
    }
  }
  // Ring edges guarantee connectivity.
  for (int i = 0; i < n; ++i) adj[static_cast<size_t>(i) * n + (i + 1) % n] = 50;

  // Golden: repeat for `sources` start nodes (wrapping), accumulate the sum
  // of all finite distances.
  const uint32_t inf = 0x7FFFFFFFu;
  uint64_t total = 0;
  for (int s = 0; s < sources; ++s) {
    const int src = s % n;
    std::vector<uint32_t> dist(static_cast<size_t>(n), inf);
    std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
    dist[static_cast<size_t>(src)] = 0;
    for (int iter = 0; iter < n; ++iter) {
      int u = -1;
      uint32_t best = inf;
      for (int v = 0; v < n; ++v) {
        if (!visited[static_cast<size_t>(v)] && dist[static_cast<size_t>(v)] < best) {
          best = dist[static_cast<size_t>(v)];
          u = v;
        }
      }
      if (u < 0) break;
      visited[static_cast<size_t>(u)] = 1;
      for (int v = 0; v < n; ++v) {
        const uint32_t w = adj[static_cast<size_t>(u) * n + v];
        if (w != 0 && !visited[static_cast<size_t>(v)] &&
            dist[static_cast<size_t>(u)] + w < dist[static_cast<size_t>(v)]) {
          dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + w;
        }
      }
    }
    for (int v = 0; v < n; ++v) total += dist[static_cast<size_t>(v)];
  }

  std::string src_text;
  src_text += "        .data\n";
  src_text += "adj:\n";
  append_words(src_text, adj);
  src_text += "dist:   .space " + std::to_string(4 * n) + "\n";
  src_text += "vis:    .space " + std::to_string(4 * n) + "\n";
  src_text += "        .text\n";
  src_text += "main:   li $s7, 0             # total\n";
  src_text += "        li $s6, 0             # source counter\n";
  src_text += "srcloop:\n";
  src_text += "        la $t0, dist          # init dist=INF, vis=0\n";
  src_text += "        la $t1, vis\n";
  src_text += "        li $t2, " + std::to_string(n) + "\n";
  src_text += R"(        li $t3, 0x7FFFFFFF
init:   sw $t3, 0($t0)
        sw $zero, 0($t1)
        addiu $t0, $t0, 4
        addiu $t1, $t1, 4
        addiu $t2, $t2, -1
        bnez $t2, init
# dist[src] = 0, src = s6 % n  (n is a compile-time constant; use subtraction)
        move $t0, $s6
)";
  src_text += "        li $t1, " + std::to_string(n) + "\n";
  src_text += R"(modlp:  blt $t0, $t1, moddone
        subu $t0, $t0, $t1
        b modlp
moddone:
        la $t1, dist
        sll $t0, $t0, 2
        addu $t1, $t1, $t0
        sw $zero, 0($t1)
# main relaxation: n iterations
)";
  src_text += "        li $s5, " + std::to_string(n) + "\n";
  src_text += R"(outer:
# select u = unvisited argmin dist
        li $s0, -1            # u
        li $s1, 0x7FFFFFFF    # best
        li $t0, 0             # v
        la $t1, dist
        la $t2, vis
)";
  src_text += "        li $t3, " + std::to_string(n) + "\n";
  src_text += R"(sel:    lw $t4, 0($t2)
        bnez $t4, selnext
        lw $t5, 0($t1)
        bgeu $t5, $s1, selnext
        move $s1, $t5
        move $s0, $t0
selnext:
        addiu $t0, $t0, 1
        addiu $t1, $t1, 4
        addiu $t2, $t2, 4
        bne $t0, $t3, sel
        bltz $s0, srcdone     # no reachable node left
# visited[u] = 1
        la $t0, vis
        sll $t1, $s0, 2
        addu $t0, $t0, $t1
        li $t2, 1
        sw $t2, 0($t0)
# relax neighbors: adj row base = adj + u*n*4
        la $t0, adj
)";
  src_text += "        li $t1, " + std::to_string(4 * n) + "\n";
  src_text += R"(        mul $t1, $s0, $t1
        addu $s2, $t0, $t1    # row pointer
        la $s3, dist
        la $s4, vis
        li $t0, 0             # v
)";
  src_text += "        li $t9, " + std::to_string(n) + "\n";
  src_text += R"(relax:  lw $t1, 0($s2)        # w
        beqz $t1, rnext
        lw $t2, 0($s4)        # visited[v]
        bnez $t2, rnext
        addu $t3, $s1, $t1    # dist[u] + w  (dist[u] == best == $s1)
        lw $t4, 0($s3)        # dist[v]
        bgeu $t3, $t4, rnext
        sw $t3, 0($s3)
rnext:  addiu $t0, $t0, 1
        addiu $s2, $s2, 4
        addiu $s3, $s3, 4
        addiu $s4, $s4, 4
        bne $t0, $t9, relax
        addiu $s5, $s5, -1
        bnez $s5, outer
srcdone:
# total += sum(dist)
        la $t0, dist
)";
  src_text += "        li $t1, " + std::to_string(n) + "\n";
  src_text += R"(sum:    lw $t2, 0($t0)
        addu $s7, $s7, $t2
        addiu $t0, $t0, 4
        addiu $t1, $t1, -1
        bnez $t1, sum
        addiu $s6, $s6, 1
)";
  src_text += "        li $t0, " + std::to_string(sources) + "\n";
  src_text += R"(        bne $s6, $t0, srcloop
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "dijkstra";
  w.display = "Dijkstra";
  w.dataflow_group = false;
  w.source = std::move(src_text);
  w.expected_output = std::to_string(static_cast<int32_t>(static_cast<uint32_t>(total)));
  return w;
}

}  // namespace dim::work
