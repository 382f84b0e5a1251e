package repro.perfbench

import repro.core.{Matrix, MipsSolver, PreparedMips, TopKResult}

/** A kernel that does no work: every user gets item ids 0..K-1 with score 0.
  * Served through `SparkMips.topKAll` it emits the same number of output rows
  * as a real strategy, so its wall time is the Spark shell alone: item
  * collect, broadcast, Row decode, Row encode and task scheduling. */
final class NoopMips extends MipsSolver {
  override def name: String = "NOOP"

  override def prepare(items: Matrix): PreparedMips = new NoopPrepared(items.rows)
}

final class NoopPrepared(nItems: Int) extends PreparedMips {
  override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
    val m = math.min(k, nItems)
    TopKResult(Array.tabulate(m)(identity), new Array[Double](m))
  }
}
