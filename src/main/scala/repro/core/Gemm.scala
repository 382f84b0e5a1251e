package repro.core

/** Dense matrix multiply — the reproduction's "MKL".
  *
  * The paper's central observation is that brute-force scoring via a GEMM
  * beats index traversal on many models because the kernel runs many scores
  * per instruction. On the JVM that means a loop C2's SuperWord pass turns
  * into SIMD: [[dotsInto]] scores one vector against rows stored
  * dimension-major (`Matrix.columns`), adding `a * col(j)` into the whole
  * score row once per dimension. Every score is the same multiplies and adds,
  * in the same order, as `Matrix.rowDot`, and Java never contracts them to a
  * fused multiply-add, so scores are bit-identical to the scalar dot product.
  * Column and score row are indexed by the same `j`: with an offset into a
  * flat buffer (`col(off + j)`), JDK 17's C2 left the loop scalar, about 5×
  * slower.
  *
  * `abtNaive` is the per-pair reference used by tests to prove `abt`
  * bit-identical and by the sanity check of its speed.
  */
object Gemm {

  /** C = A * B^T. A: m x k, B: n x k, C (returned): m x n. */
  def abt(a: Matrix, b: Matrix): Matrix = {
    require(a.cols == b.cols, s"inner dims differ: ${a.cols} vs ${b.cols}")
    val bCols = b.columns()
    val c = Matrix.zeros(a.rows, b.rows)
    val row = new Array[Double](b.rows)
    var i = 0
    while (i < a.rows) {
      dotsInto(a.data, i * a.cols, bCols, row)
      System.arraycopy(row, 0, c.data, i * b.rows, b.rows)
      i += 1
    }
    c
  }

  /** `out(j)` = Σ_p v(vOff + p) · cols(p)(j) for every j < out.length, where
    * `cols` holds the scored rows dimension-major (each of length ≥
    * out.length). Adds run in p order from 0.0, as in `Matrix.rowDot`. */
  def dotsInto(v: Array[Double], vOff: Int, cols: Array[Array[Double]],
               out: Array[Double]): Unit = {
    val n = out.length
    java.util.Arrays.fill(out, 0.0)
    var p = 0
    while (p < cols.length) {
      val a = v(vOff + p)
      val col = cols(p)
      var j = 0
      while (j < n) { out(j) += a * col(j); j += 1 }
      p += 1
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
