package repro.core

/** Dense, row-major matrix over a primitive `Array[Double]`.
  *
  * This is the base type for every numeric kernel in the reproduction:
  * user matrices are `|U| x f`, item matrices `|I| x f`. Row-major layout
  * keeps each vector contiguous, which the per-row pruning loops in the index
  * implementations depend on; the vectorized loops in [[Gemm]] read a
  * dimension-major copy (`columns`) instead.
  *
  * All mutation is via explicit `set`/`data`; the solvers treat matrices as
  * immutable after construction.
  */
final class Matrix(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows.toLong * cols, s"data length ${data.length} != $rows x $cols")

  @inline def apply(r: Int, c: Int): Double = data(r * cols + c)
  @inline def set(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  /** Copy of row `r` as a standalone vector. */
  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  /** L2 norm of row `r`. */
  def rowNorm(r: Int): Double = {
    var s = 0.0; val off = r * cols
    var c = 0
    while (c < cols) { val v = data(off + c); s += v * v; c += 1 }
    math.sqrt(s)
  }

  /** All row L2 norms. */
  def rowNorms: Array[Double] = Array.tabulate(rows)(rowNorm)

  /** Dot product of row `r` with an external vector of length `cols`.
    *
    * The sum starts at 0.0 and adds `this(r, c) * v(c)` for c = 0, 1, …,
    * cols − 1, one rounding per multiply and per add. The item-major loops
    * ([[Gemm.dotsInto]], RECDEX's list walk) run the same operations in the
    * same order, so their scores equal this one bit for bit and ties between
    * strategies resolve identically.
    */
  def rowDot(r: Int, v: Array[Double]): Double = {
    var s = 0.0; val off = r * cols
    var c = 0
    while (c < cols) { s += data(off + c) * v(c); c += 1 }
    s
  }

  /** Dimension-major copy of rows `[from, until)`:
    * `out(c)(r - from) == this(r, c)`. One array per column, indexed from 0,
    * so a loop over rows reads each column at the index it writes, which the
    * JIT vectorizes. */
  def columns(from: Int = 0, until: Int = rows): Array[Array[Double]] = {
    val out = Array.ofDim[Double](cols, until - from)
    var r = from
    while (r < until) {
      val off = r * cols
      var c = 0
      while (c < cols) { out(c)(r - from) = data(off + c); c += 1 }
      r += 1
    }
    out
  }

  /** New matrix containing rows `[from, until)`. */
  def sliceRows(from: Int, until: Int): Matrix = {
    require(from >= 0 && until <= rows && from <= until, s"bad slice [$from,$until) of $rows")
    new Matrix(until - from, cols, java.util.Arrays.copyOfRange(data, from * cols, until * cols))
  }

  /** New matrix containing exactly the given rows, in order. */
  def selectRows(idx: Array[Int]): Matrix = {
    val out = new Array[Double](idx.length * cols)
    var i = 0
    while (i < idx.length) {
      System.arraycopy(data, idx(i) * cols, out, i * cols, cols)
      i += 1
    }
    new Matrix(idx.length, cols, out)
  }

  def copy(): Matrix = new Matrix(rows, cols, data.clone())

  override def toString: String = s"Matrix($rows x $cols)"
}

object Matrix {
  /** Zero-filled matrix. */
  def zeros(rows: Int, cols: Int): Matrix = new Matrix(rows, cols, new Array[Double](rows * cols))

  /** Build from a function of (row, col). */
  def tabulate(rows: Int, cols: Int)(f: (Int, Int) => Double): Matrix = {
    val d = new Array[Double](rows * cols)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { d(r * cols + c) = f(r, c); c += 1 }
      r += 1
    }
    new Matrix(rows, cols, d)
  }

  /** Build from per-row vectors (each of equal length). */
  def fromRows(rows: Seq[Array[Double]]): Matrix = {
    require(rows.nonEmpty, "fromRows: empty")
    val cols = rows.head.length
    val d = new Array[Double](rows.length * cols)
    var r = 0
    rows.foreach { v =>
      require(v.length == cols, "fromRows: ragged rows")
      System.arraycopy(v, 0, d, r * cols, cols); r += 1
    }
    new Matrix(rows.length, cols, d)
  }

  /** Deterministic Gaussian matrix (Box–Muller over a seeded PRNG). */
  def randn(rows: Int, cols: Int, seed: Long, sigma: Double = 1.0): Matrix = {
    val rng = new scala.util.Random(seed)
    val d = new Array[Double](rows * cols)
    var i = 0
    while (i < d.length) { d(i) = rng.nextGaussian() * sigma; i += 1 }
    new Matrix(rows, cols, d)
  }
}
