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
  /** Rows of at most `SelectRowsPerK`·K scores take the bucket select,
    * longer ones the heap scan. `TopKSelectBench` measured the crossover,
    * single-threaded, heap against select in ns/score (EXPERIMENTS.md,
    * "Top-K selection"): at |I| = 1,600, K = 10 (K/|I| = 1/160) 3.1–3.3
    * against 3.4–3.5 and K = 20 (1/80) 4.6–4.8 against 3.6–3.7; at
    * |I| = 12,000, K = 50 (1/240) 3.5 against 3.3 and K = 100 (1/120) 4.9
    * against 3.2. Below the crossover the heap accepts few scores and beats
    * the select's three passes. */
  val SelectRowsPerK = 128
  /** Linear buckets of the select's histogram. */
  private val Buckets = 1024
  /** The select's insertion sort costs up to the square of a bucket's
    * count; a row with a bucket to sort above this falls back to the heap
    * scan. Score rows of MM models put a few scores in each top bucket. */
  private val MaxSortedBucket = 64

  /** Exact top-K over one row of a score matrix (MM passes a one-row matrix);
    * item ids are column indices. Rows of at most [[SelectRowsPerK]]·K
    * scores take [[bucketSelect]], longer ones [[heapScan]]; both return the
    * same ids and score bits. */
  def ofMatrixRow(m: Matrix, row: Int, k: Int): TopKResult =
    if (m.cols <= k.toLong * SelectRowsPerK) bucketSelect(m, row, k) else heapScan(m, row, k)

  /** Every score of the row offered to a [[TopKHeap]], in id order. */
  private[repro] def heapScan(m: Matrix, row: Int, k: Int): TopKResult = {
    val h = new TopKHeap(k)
    val off = row * m.cols
    var j = 0
    while (j < m.cols) { h.offer(m.data(off + j), j); j += 1 }
    h.result()
  }

  /** Bucket select (Alabi et al., JEA 2012):
    *  1. find the row's min and max;
    *  2. count the scores into [[Buckets]] linear buckets between them;
    *  3. walk down from the top bucket until the count reaches K;
    *  4. place the scores of that bucket and the ones above it in bucket
    *     order, best bucket first and in id order within a bucket, sort each
    *     bucket's scores descending with a stable insertion sort, and keep
    *     the first K.
    * The bucket index is monotone in the score, so every score that ties or
    * beats the K-th best is placed, equal scores (0.0 and -0.0 included)
    * share a bucket and keep their ids ascending, and the result is
    * [[heapScan]]'s: the order (score desc, id asc) with the same bits.
    * Falls back to [[heapScan]] where the buckets are not defined (k < 1,
    * K ≥ the row length, a NaN or ±Inf score, which `math.min`/`math.max`
    * carry into the range, all scores equal, or a range or scale that is not
    * finite) and where a bucket to sort holds more than
    * [[MaxSortedBucket]] scores. */
  private[repro] def bucketSelect(m: Matrix, row: Int, k: Int): TopKResult = {
    val n = m.cols
    if (k < 1 || k >= n) return heapScan(m, row, k)
    val d = m.data
    val off = row * n
    var lo = d(off)
    var hi = lo
    var j = 1
    while (j < n) { val s = d(off + j); lo = math.min(lo, s); hi = math.max(hi, s); j += 1 }
    val range = hi - lo
    val scale = (Buckets - 1) / range
    if (!(range > 0 && range <= Double.MaxValue && scale <= Double.MaxValue)) return heapScan(m, row, k)
    // 0 <= s - lo <= range, so every index lies in [0, Buckets - 1]
    val counts = new Array[Int](Buckets)
    j = 0
    while (j < n) { counts(((d(off + j) - lo) * scale).toInt) += 1; j += 1 }
    var t = Buckets - 1
    var placed = counts(t)
    while (placed < k) { t -= 1; placed += counts(t) }
    // counts(b) becomes the slot of bucket b's next score, best bucket first
    var slot = 0
    var b = Buckets - 1
    while (b >= t) {
      val c = counts(b)
      if (c > MaxSortedBucket) return heapScan(m, row, k)
      counts(b) = slot; slot += c; b -= 1
    }
    val scores = new Array[Double](placed)
    val ids = new Array[Int](placed)
    j = 0
    while (j < n) {
      val s = d(off + j)
      val bj = ((s - lo) * scale).toInt
      if (bj >= t) { val p = counts(bj); scores(p) = s; ids(p) = j; counts(bj) = p + 1 }
      j += 1
    }
    // scores in different buckets are already in order, so the sort only
    // moves a score within its own bucket
    var i = 1
    while (i < placed) {
      val s = scores(i); val id = ids(i)
      var p = i - 1
      while (p >= 0 && scores(p) < s) { scores(p + 1) = scores(p); ids(p + 1) = ids(p); p -= 1 }
      scores(p + 1) = s; ids(p + 1) = id
      i += 1
    }
    TopKResult(java.util.Arrays.copyOf(ids, k), java.util.Arrays.copyOf(scores, k))
  }
}
