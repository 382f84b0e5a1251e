package repro.core

/** Result of a top-K query: item ids with scores, best first.
  *
  * Ordering is deterministic: score descending, then item id ascending. All
  * solvers in this reproduction share this tie-break so their outputs (and
  * the DuckDB oracle's `ORDER BY score DESC, item_id ASC`) are comparable
  * row-for-row.
  */
final case class TopKResult(ids: Array[Int], scores: Array[Double]) {
  def size: Int = ids.length
  def toPairs: Seq[(Int, Double)] = ids.toIndexedSeq.zip(scores.toIndexedSeq)
}

/** Bounded min-heap of (score, id) keeping the K best entries.
  *
  * An entry `(s, i)` beats the heap minimum `(ms, mi)` iff `s > ms`, or
  * `s == ms && i < mi` — the same total order used by [[TopKResult]], so
  * boundary ties resolve identically everywhere.
  */
final class TopKHeap(val k: Int) {
  require(k >= 1, s"k must be >= 1, got $k")
  private val heapScores = new Array[Double](k)
  private val heapIds    = new Array[Int](k)
  private var n = 0

  @inline private def less(i: Int, j: Int): Boolean = {
    // min-heap order: the "worst" entry (lowest score, then highest id) on top
    val si = heapScores(i); val sj = heapScores(j)
    si < sj || (si == sj && heapIds(i) > heapIds(j))
  }

  @inline private def swap(i: Int, j: Int): Unit = {
    val ts = heapScores(i); heapScores(i) = heapScores(j); heapScores(j) = ts
    val ti = heapIds(i); heapIds(i) = heapIds(j); heapIds(j) = ti
  }

  private def siftUp(start: Int): Unit = {
    var i = start
    while (i > 0) {
      val parent = (i - 1) >> 1
      if (less(i, parent)) { swap(i, parent); i = parent } else return
    }
  }

  private def siftDown(start: Int): Unit = {
    var i = start
    while (true) {
      val l = 2 * i + 1; val r = l + 1
      var m = i
      if (l < n && less(l, m)) m = l
      if (r < n && less(r, m)) m = r
      if (m == i) return
      swap(i, m); i = m
    }
  }

  def size: Int = n
  def isFull: Boolean = n == k

  /** Lowest score currently retained (only meaningful when full). */
  def minScore: Double = if (n == 0) Double.NegativeInfinity else heapScores(0)

  /** Offer an entry; keeps the K best. */
  def offer(score: Double, id: Int): Unit = {
    if (n < k) {
      heapScores(n) = score; heapIds(n) = id; n += 1; siftUp(n - 1)
    } else if (score > heapScores(0) || (score == heapScores(0) && id < heapIds(0))) {
      heapScores(0) = score; heapIds(0) = id; siftDown(0)
    }
  }

  /** Drain into a [[TopKResult]] sorted best-first. Destroys the heap. */
  def result(): TopKResult = {
    val m = n
    val outIds = new Array[Int](m)
    val outScores = new Array[Double](m)
    var i = m - 1
    while (i >= 0) {
      outScores(i) = heapScores(0); outIds(i) = heapIds(0)
      n -= 1
      if (n > 0) {
        heapScores(0) = heapScores(n); heapIds(0) = heapIds(n)
        siftDown(0)
      }
      i -= 1
    }
    TopKResult(outIds, outScores)
  }
}

object TopK {
  /** Exact top-K over one row of a score matrix (MM passes a one-row matrix);
    * item ids are column indices. */
  def ofMatrixRow(m: Matrix, row: Int, k: Int): TopKResult = {
    val h = new TopKHeap(k)
    val off = row * m.cols
    var j = 0
    while (j < m.cols) { h.offer(m.data(off + j), j); j += 1 }
    h.result()
  }
}
