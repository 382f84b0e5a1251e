package repro.core

/** Brute-force blocked matrix multiply top-K — the paper's "MM" strategy.
  *
  * Scores a block of users against the full item matrix with the cache-tiled
  * GEMM from [[Gemm]], then extracts each user's top-K from the dense score
  * strip with a bounded heap (the paper's "priority queue" step, whose cost
  * varies with K). Users are processed in strips of `userBlock` rows so the
  * score buffer stays bounded (the paper sizes batches to fill memory; we
  * size them to a few MB which is past the cache-efficiency knee).
  */
final class BruteForceMM(val userBlock: Int = 512) extends MipsSolver {
  override def name: String = "MM"

  override def prepare(items: Matrix): PreparedMips = new BruteForcePrepared(items, userBlock)
}

final class BruteForcePrepared(items: Matrix, userBlock: Int) extends PreparedMips {
  override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
    // Single user degenerates to a matrix-vector product — exactly the slow
    // path the paper warns about; provided for completeness/correctness.
    val h = new TopKHeap(k)
    var j = 0
    while (j < items.rows) { h.offer(items.rowDot(j, user), j); j += 1 }
    h.result()
  }

  override def queryBatch(users: Matrix, k: Int): Array[TopKResult] = {
    val out = new Array[TopKResult](users.rows)
    var r0 = 0
    while (r0 < users.rows) {
      val r1 = math.min(r0 + userBlock, users.rows)
      val block = users.sliceRows(r0, r1)
      val scores = Gemm.abt(block, items) // (r1-r0) x |I|
      var r = 0
      while (r < scores.rows) {
        out(r0 + r) = TopK.ofMatrixRow(scores, r, k)
        r += 1
      }
      r0 = r1
    }
    out
  }
}
