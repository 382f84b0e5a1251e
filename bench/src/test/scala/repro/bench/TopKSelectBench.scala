package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Gemm, Matrix, TopK, TopKResult}
import repro.mf.ModelZoo

/** The crossover of MM's top-K selection: the bounded-heap scan against the
  * bucket select, single-threaded, in ns per score, on the score rows of
  * three catalogs:
  *  - the perfbench `diffuse-k50` and `concentrated-k10` shapes (|I| = 1,600,
  *    2,000 users, seed 31);
  *  - the largest model-zoo catalog, GloVe-f50 (|I| = 12,000, its first 500
  *    users).
  *
  * `TopK.ofMatrixRow` takes the select where |I| ≤ `TopK.SelectRowsPerK`·K;
  * the last column says which path that is. Each cell is the median of
  * [[Reps]] passes over every row, heap and select passes alternating. The
  * bench asserts that both return the same ids and score bits on every row;
  * it has no timing gate.
  *
  *   sbt "bench/testOnly *TopKSelectBench"
  */
class TopKSelectBench extends AnyFunSuite {
  private val Ks = Seq(1, 5, 10, 20, 30, 50, 100)
  private val Reps = 7

  private def catalogs: Seq[(String, Matrix)] = {
    val (du, di) = ModelZoo.factorModel(2000, 1600, 50, 16, 6.0, 16, 6.0, 0.25, 0.10, 31)
    val (cu, ci) = ModelZoo.factorModel(2000, 1600, 50, 4, 0.40, 8, 1.5, 0.15, 0.35, 31)
    val glove = ModelZoo.referenceModels().find(_.name == "GloVe-f50").get
    Seq(("diffuse-k50 shape", Gemm.abt(du, di)),
      ("concentrated-k10 shape", Gemm.abt(cu, ci)),
      ("GloVe-f50", Gemm.abt(glove.users.sliceRows(0, 500), glove.items)))
  }

  private def pass(scores: Matrix, k: Int, select: (Matrix, Int, Int) => TopKResult): Double = {
    val t0 = System.nanoTime()
    var r = 0
    while (r < scores.rows) { select(scores, r, k); r += 1 }
    (System.nanoTime() - t0).toDouble / (scores.rows.toLong * scores.cols)
  }

  private def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.size / 2)

  test("top-K selection: heap scan against bucket select") {
    println()
    println(f"${"catalog"}%-24s ${"|I|"}%6s ${"K"}%4s ${"heap ns"}%8s ${"select ns"}%10s  ofMatrixRow")
    for ((name, scores) <- catalogs; k <- Ks) {
      (0 until scores.rows).foreach { r =>
        val h = TopK.heapScan(scores, r, k)
        val s = TopK.bucketSelect(scores, r, k)
        assert(s.ids.toSeq == h.ids.toSeq, s"$name K=$k row $r: ids")
        assert(s.scores.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
          h.scores.toSeq.map(java.lang.Double.doubleToRawLongBits), s"$name K=$k row $r: score bits")
      }
      pass(scores, k, TopK.heapScan); pass(scores, k, TopK.bucketSelect) // warm
      val runs = (0 until Reps).map(_ => (pass(scores, k, TopK.heapScan), pass(scores, k, TopK.bucketSelect)))
      val path = if (scores.cols <= k.toLong * TopK.SelectRowsPerK) "select" else "heap"
      println(f"$name%-24s ${scores.cols}%6d $k%4d ${median(runs.map(_._1))}%8.2f ${median(runs.map(_._2))}%10.2f  $path")
    }
  }
}
