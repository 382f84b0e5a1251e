package repro.core

/** Cache-blocked dense matrix multiply — the reproduction's "MKL".
  *
  * The paper's central observation is that brute-force scoring via a blocked
  * GEMM beats index traversal on many models because the kernel streams
  * through memory in cache-sized tiles. This object provides that kernel for
  * the JVM: `abt` computes C = A * B^T (scores = users * items^T) with
  * three-level loop tiling so that a tile of A, a tile of B and the C strip
  * stay L1/L2-resident, plus a 4-way unrolled innermost loop that the JIT
  * vectorizes with SIMD on modern JVMs.
  *
  * `abtNaive` is the unblocked reference used by tests to prove the tiled
  * kernel bit-compatible (same add order within a row pair) and by
  * micro-benchmarks to measure the blocking speedup.
  */
object Gemm {

  /** Rows of A per tile. */
  val TileM = 64
  /** Rows of B per tile. */
  val TileN = 64
  /** Shared-dimension tile (f is usually <= 200, so often a single tile). */
  val TileK = 256

  /** C = A * B^T, tiled. A: m x k, B: n x k, C (returned): m x n. */
  def abt(a: Matrix, b: Matrix): Matrix = {
    require(a.cols == b.cols, s"inner dims differ: ${a.cols} vs ${b.cols}")
    val c = Matrix.zeros(a.rows, b.rows)
    abtInto(a, b, c)
    c
  }

  /** C += A * B^T into a preallocated C (must be zeroed by the caller).
    *
    * Two-level blocking: cache tiles (TileM x TileN x TileK) plus a 4x4
    * register-blocked micro-kernel — each inner-loop step loads 4 A values
    * and 4 B values and performs 16 multiply-adds into locals the JIT keeps
    * in registers. This raises arithmetic intensity ~4x over a per-pair dot
    * product, which is exactly the "decades of kernel optimization" constant
    * factor the paper's brute-force argument rests on.
    */
  def abtInto(a: Matrix, b: Matrix, c: Matrix): Unit = {
    val m = a.rows; val n = b.rows; val k = a.cols
    val ad = a.data; val bd = b.data; val cd = c.data
    var i0 = 0
    while (i0 < m) {
      val iMax = math.min(i0 + TileM, m)
      var j0 = 0
      while (j0 < n) {
        val jMax = math.min(j0 + TileN, n)
        var p0 = 0
        while (p0 < k) {
          val pMax = math.min(p0 + TileK, k)
          // --- 4x4 register-blocked micro-kernel over the tile ---
          val iQuad = i0 + ((iMax - i0) & ~3)
          val jQuad = j0 + ((jMax - j0) & ~3)
          var i = i0
          while (i < iQuad) {
            val a0 = i * k; val a1 = a0 + k; val a2 = a1 + k; val a3 = a2 + k
            val c0 = i * n; val c1 = c0 + n; val c2 = c1 + n; val c3 = c2 + n
            var j = j0
            while (j < jQuad) {
              val b0 = j * k; val b1 = b0 + k; val b2 = b1 + k; val b3 = b2 + k
              var s00 = 0.0; var s01 = 0.0; var s02 = 0.0; var s03 = 0.0
              var s10 = 0.0; var s11 = 0.0; var s12 = 0.0; var s13 = 0.0
              var s20 = 0.0; var s21 = 0.0; var s22 = 0.0; var s23 = 0.0
              var s30 = 0.0; var s31 = 0.0; var s32 = 0.0; var s33 = 0.0
              var p = p0
              while (p < pMax) {
                val av0 = ad(a0 + p); val av1 = ad(a1 + p)
                val av2 = ad(a2 + p); val av3 = ad(a3 + p)
                val bv0 = bd(b0 + p); val bv1 = bd(b1 + p)
                val bv2 = bd(b2 + p); val bv3 = bd(b3 + p)
                s00 += av0 * bv0; s01 += av0 * bv1; s02 += av0 * bv2; s03 += av0 * bv3
                s10 += av1 * bv0; s11 += av1 * bv1; s12 += av1 * bv2; s13 += av1 * bv3
                s20 += av2 * bv0; s21 += av2 * bv1; s22 += av2 * bv2; s23 += av2 * bv3
                s30 += av3 * bv0; s31 += av3 * bv1; s32 += av3 * bv2; s33 += av3 * bv3
                p += 1
              }
              cd(c0 + j) += s00; cd(c0 + j + 1) += s01; cd(c0 + j + 2) += s02; cd(c0 + j + 3) += s03
              cd(c1 + j) += s10; cd(c1 + j + 1) += s11; cd(c1 + j + 2) += s12; cd(c1 + j + 3) += s13
              cd(c2 + j) += s20; cd(c2 + j + 1) += s21; cd(c2 + j + 2) += s22; cd(c2 + j + 3) += s23
              cd(c3 + j) += s30; cd(c3 + j + 1) += s31; cd(c3 + j + 2) += s32; cd(c3 + j + 3) += s33
              j += 4
            }
            // ragged j edge for these 4 rows
            while (j < jMax) {
              val bOff = j * k
              var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
              var p = p0
              while (p < pMax) {
                val bv = bd(bOff + p)
                s0 += ad(a0 + p) * bv; s1 += ad(a1 + p) * bv
                s2 += ad(a2 + p) * bv; s3 += ad(a3 + p) * bv
                p += 1
              }
              cd(c0 + j) += s0; cd(c1 + j) += s1; cd(c2 + j) += s2; cd(c3 + j) += s3
              j += 1
            }
            i += 4
          }
          // ragged i edge: plain dot products
          while (i < iMax) {
            val aOff = i * k
            val cOff = i * n
            var j = j0
            while (j < jMax) {
              val bOff = j * k
              var s = 0.0
              var p = p0
              while (p < pMax) { s += ad(aOff + p) * bd(bOff + p); p += 1 }
              cd(cOff + j) += s
              j += 1
            }
            i += 1
          }
          p0 += TileK
        }
        j0 += TileN
      }
      i0 += TileM
    }
  }

  /** Unblocked reference kernel: C = A * B^T. */
  def abtNaive(a: Matrix, b: Matrix): Matrix = {
    require(a.cols == b.cols, s"inner dims differ: ${a.cols} vs ${b.cols}")
    val m = a.rows; val n = b.rows; val k = a.cols
    val c = Matrix.zeros(m, n)
    var i = 0
    while (i < m) {
      var j = 0
      while (j < n) {
        var s = 0.0
        var p = 0
        while (p < k) { s += a(i, p) * b(j, p); p += 1 }
        c.set(i, j, s)
        j += 1
      }
      i += 1
    }
    c
  }

  /** C = A * B (plain orientation), used for small f x f transforms. */
  def ab(a: Matrix, b: Matrix): Matrix = {
    require(a.cols == b.rows, s"inner dims differ: ${a.cols} vs ${b.rows}")
    val m = a.rows; val k = a.cols; val n = b.cols
    val c = Matrix.zeros(m, n)
    var i = 0
    while (i < m) {
      var p = 0
      while (p < k) {
        val aip = a(i, p)
        if (aip != 0.0) {
          var j = 0
          while (j < n) { c.set(i, j, c(i, j) + aip * b(p, j)); j += 1 }
        }
        p += 1
      }
      i += 1
    }
    c
  }

  /** Gram matrix G = A^T * A (f x f), used by the thin SVD. */
  def gram(a: Matrix): Matrix = {
    val k = a.cols
    val g = Matrix.zeros(k, k)
    val gd = g.data; val ad = a.data
    var r = 0
    while (r < a.rows) {
      val off = r * k
      var i = 0
      while (i < k) {
        val ai = ad(off + i)
        if (ai != 0.0) {
          var j = i
          while (j < k) { gd(i * k + j) += ai * ad(off + j); j += 1 }
        }
        i += 1
      }
      r += 1
    }
    // mirror the upper triangle
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) { gd(j * k + i) = gd(i * k + j); j += 1 }
      i += 1
    }
    g
  }
}
