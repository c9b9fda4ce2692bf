// Susan (MiBench automotive/susan): the SUSAN image kernels — brightness-
// similarity smoothing, corner detection and edge detection on grayscale
// images. Inner loops mix loads, table lookups and branches.
#include <cstdlib>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

// Synthetic test image: blocks, gradients and noise so that corners/edges
// exist. Width is a power of two so the kernels index with shifts.
std::vector<uint8_t> make_image(int w, int h) {
  std::vector<uint8_t> img(static_cast<size_t>(w) * h);
  uint32_t seed = 0x5A5A1234u;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int v = 90;
      if (((x / 12) + (y / 10)) % 2 == 0) v = 170;  // checkerboard blocks
      v += (x * 2 + y) % 17;                        // gradient texture
      v += static_cast<int>(golden::lcg(seed) % 9); // mild noise
      if (v > 255) v = 255;
      img[static_cast<size_t>(y * w + x)] = static_cast<uint8_t>(v);
    }
  }
  return img;
}

void append_image_data(std::string& src, const std::vector<uint8_t>& img) {
  src += "img:\n";
  append_bytes(src, img);
}

}  // namespace

Workload make_susan_s(int scale) {
  const int w = 64;
  const int h = 56 * scale;
  const std::vector<uint8_t> img = make_image(w, h);
  const std::vector<uint8_t> out = golden::susan_smooth(img, w, h);
  uint32_t checksum = 0;
  for (size_t i = 0; i < out.size(); ++i) checksum += out[i] ^ static_cast<uint32_t>(i & 0xFF);

  std::vector<int32_t> lut = golden::susan_lut();

  std::string src;
  src += "        .data\n";
  append_image_data(src, img);
  src += "lut:\n";
  append_words_i(src, lut);
  src += "outbuf: .space " + std::to_string(w * h) + "\n";
  src += "        .text\n";
  src += "main:   la $s0, img\n";
  src += "        la $s1, lut\n";
  src += "        la $s2, outbuf\n";
  src += R"(# copy borders first: out = img
        move $t0, $s0
        move $t1, $s2
)";
  src += "        li $t2, " + std::to_string(w * h) + "\n";
  src += R"(copy:   lbu $t3, 0($t0)
        sb $t3, 0($t1)
        addiu $t0, $t0, 1
        addiu $t1, $t1, 1
        addiu $t2, $t2, -1
        bnez $t2, copy
# smoothing over interior pixels
        li $s3, 1             # y
yloop:  li $s4, 1             # x
xloop:  sll $t0, $s3, 6       # y*64
        addu $t0, $t0, $s4
        addu $t1, $s0, $t0
        lbu $s5, 0($t1)       # center
        li $t8, 0             # num
        li $t9, 0             # den
        li $s6, -1            # dy
nbry:   li $s7, -1            # dx
nbrx:   sll $t2, $s6, 6
        addu $t2, $t2, $s7
        addu $t2, $t2, $t1    # &img[(y+dy)*64 + x+dx]
        lbu $t3, 0($t2)       # p
        subu $t4, $t3, $s5
        bgez $t4, absok
        subu $t4, $zero, $t4
absok:  sll $t4, $t4, 2
        addu $t4, $s1, $t4
        lw $t4, 0($t4)        # weight
        mult $t4, $t3
        mflo $t5
        addu $t8, $t8, $t5    # num += w*p
        addu $t9, $t9, $t4    # den += w
        addiu $s7, $s7, 1
        li $t2, 2
        bne $s7, $t2, nbrx
        addiu $s6, $s6, 1
        li $t2, 2
        bne $s6, $t2, nbry
        div $t8, $t9
        mflo $t8
        addu $t2, $s2, $t0
        sb $t8, 0($t2)
        addiu $s4, $s4, 1
)";
  src += "        li $t2, " + std::to_string(w - 1) + "\n";
  src += R"(        bne $s4, $t2, xloop
        addiu $s3, $s3, 1
)";
  src += "        li $t2, " + std::to_string(h - 1) + "\n";
  src += R"(        bne $s3, $t2, yloop
# checksum over the output image
        move $t0, $s2
)";
  src += "        li $t1, " + std::to_string(w * h) + "\n";
  src += R"(        li $s7, 0
        li $t9, 0             # index
chk:    lbu $t2, 0($t0)
        andi $t3, $t9, 0xFF
        xor $t2, $t2, $t3
        addu $s7, $s7, $t2
        addiu $t0, $t0, 1
        addiu $t9, $t9, 1
        addiu $t1, $t1, -1
        bnez $t1, chk
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload wl;
  wl.name = "susan_s";
  wl.display = "Susan Smoothing";
  wl.dataflow_group = true;
  wl.source = std::move(src);
  wl.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return wl;
}

Workload make_susan_c(int scale) {
  const int w = 64;
  const int h = 36 * scale;
  const std::vector<uint8_t> img = make_image(w, h);

  // The genuine SUSAN circular mask: 37 pixels within radius ~3.4 of the
  // nucleus (the exact mask of the original SUSAN paper / MiBench code).
  std::vector<int32_t> mask_offsets;
  for (int dy = -3; dy <= 3; ++dy) {
    for (int dx = -3; dx <= 3; ++dx) {
      const int span = (dy == -3 || dy == 3) ? 1 : (dy == -2 || dy == 2) ? 2 : 3;
      if (dx >= -span && dx <= span) mask_offsets.push_back(dy * w + dx);
    }
  }
  // 37-pixel mask, geometric threshold = 3/4 of max USAN (as in SUSAN).
  const int t = 20;
  const int usan_threshold = 3 * static_cast<int>(mask_offsets.size()) / 4;

  int corners = 0;
  for (int y = 3; y < h - 3; ++y) {
    for (int x = 3; x < w - 3; ++x) {
      const int center = img[static_cast<size_t>(y * w + x)];
      int usan = 0;
      for (int32_t off : mask_offsets) {
        const int p = img[static_cast<size_t>(y * w + x + off)];
        const int d = p > center ? p - center : center - p;
        if (d < t) ++usan;
      }
      if (usan < usan_threshold) ++corners;
    }
  }

  std::string src;
  src += "        .data\n";
  append_image_data(src, img);
  src += "mask:\n";
  append_words_i(src, mask_offsets);
  src += "        .text\n";
  src += "main:   la $s0, img\n";
  src += "        la $s1, mask\n";
  src += R"(        li $s7, 0             # corners
        li $s3, 3             # y
yloop:  li $s4, 3             # x
xloop:  sll $t0, $s3, 6
        addu $t0, $t0, $s4
        addu $t1, $s0, $t0    # &img[y*64+x]
        lbu $s5, 0($t1)       # nucleus
        li $t8, 0             # usan
        move $t9, $s1         # mask cursor
)";
  src += "        li $s6, " + std::to_string(mask_offsets.size()) + "\n";
  src += R"(nbr:    lw $t2, 0($t9)
        addu $t2, $t2, $t1
        lbu $t3, 0($t2)
        subu $t4, $t3, $s5
        bgez $t4, absok
        subu $t4, $zero, $t4
absok:  slti $t4, $t4, 20     # |diff| < t
        addu $t8, $t8, $t4
        addiu $t9, $t9, 4
        addiu $s6, $s6, -1
        bnez $s6, nbr
)";
  src += "        slti $t2, $t8, " + std::to_string(usan_threshold) + "\n";
  src += R"(        addu $s7, $s7, $t2
        addiu $s4, $s4, 1
)";
  src += "        li $t2, " + std::to_string(w - 3) + "\n";
  src += R"(        bne $s4, $t2, xloop
        addiu $s3, $s3, 1
)";
  src += "        li $t2, " + std::to_string(h - 3) + "\n";
  src += R"(        bne $s3, $t2, yloop
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload wl;
  wl.name = "susan_c";
  wl.display = "Susan Corners";
  wl.dataflow_group = true;
  wl.source = std::move(src);
  wl.expected_output = std::to_string(corners);
  return wl;
}

Workload make_susan_e(int scale) {
  const int w = 64;
  const int h = 52 * scale;
  const std::vector<uint8_t> img = make_image(w, h);
  const int edges = golden::susan_edges(img, w, h);

  std::string src;
  src += "        .data\n";
  append_image_data(src, img);
  src += "        .text\n";
  src += "main:   la $s0, img\n";
  src += R"(        li $s7, 0             # edges
        li $s3, 1             # y
yloop:  li $s4, 1             # x
xloop:  sll $t0, $s3, 6
        addu $t0, $t0, $s4
        addu $t1, $s0, $t0
        lbu $s5, 0($t1)
        li $t8, 0
        li $s6, -1
nbry:   li $s2, -1
nbrx:   sll $t2, $s6, 6
        addu $t2, $t2, $s2
        addu $t2, $t2, $t1
        lbu $t3, 0($t2)
        subu $t4, $t3, $s5
        bgez $t4, absok
        subu $t4, $zero, $t4
absok:  slti $t4, $t4, 12
        addu $t8, $t8, $t4
        addiu $s2, $s2, 1
        li $t2, 2
        bne $s2, $t2, nbrx
        addiu $s6, $s6, 1
        li $t2, 2
        bne $s6, $t2, nbry
        slti $t2, $t8, 7
        addu $s7, $s7, $t2
        addiu $s4, $s4, 1
)";
  src += "        li $t2, " + std::to_string(w - 1) + "\n";
  src += R"(        bne $s4, $t2, xloop
        addiu $s3, $s3, 1
)";
  src += "        li $t2, " + std::to_string(h - 1) + "\n";
  src += R"(        bne $s3, $t2, yloop
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload wl;
  wl.name = "susan_e";
  wl.display = "Susan Edges";
  wl.dataflow_group = true;
  wl.source = std::move(src);
  wl.expected_output = std::to_string(edges);
  return wl;
}

}  // namespace dim::work
