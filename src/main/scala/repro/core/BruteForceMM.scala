package repro.core

/** Brute-force matrix multiply top-K — the paper's "MM" strategy.
  *
  * `prepare` stores the items dimension-major once; each user is then scored,
  * in place in its block, against every item with the vectorized
  * [[Gemm.dotsInto]] into an |I|-long row reused within one call, and its
  * top-K taken from that row by [[TopK.ofMatrixRow]] (the paper's "priority
  * queue" step, whose cost varies with K): a bounded heap, or at
  * K ≥ |I| / [[TopK.SelectRowsPerK]] a bucket select with the heap's result. Scores equal `Matrix.rowDot` bit for bit.
  */
final class BruteForceMM extends MipsSolver {
  override def name: String = "MM"

  override def prepare(items: Matrix): PreparedMips = new BruteForcePrepared(items)
}

/** Holds only the dimension-major copy of the items (the row-major matrix is
  * not kept, so a broadcast carries the items once). */
final class BruteForcePrepared(items: Matrix) extends PreparedMips {
  private[this] val numItems = items.rows
  private[this] val itemCols = items.columns()

  override def query(user: Array[Double], userId: Int, k: Int): TopKResult =
    topK(user, 0, new Matrix(1, numItems, new Array[Double](numItems)), k)

  override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = rows => {
    val row = new Matrix(1, numItems, new Array[Double](numItems))
    rows.map(r => topK(block.data, r * block.cols, row, k))
  }

  private def topK(v: Array[Double], vOff: Int, row: Matrix, k: Int): TopKResult = {
    Gemm.dotsInto(v, vOff, itemCols, row.data)
    TopK.ofMatrixRow(row, 0, k)
  }
}
