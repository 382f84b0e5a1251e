package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Sweep
import repro.mf.ModelZoo
import repro.recdex.{Recdex, RecdexPrepared}

/** RECDEX runtime breakdown and blocking lesion study (§6.4 / Fig. 8).
  *
  * Paper numbers: enabling the §5.4 blocked work sharing improves RECDEX
  * throughput by 2.4x (Netflix-NOMAD f=50) and 1.4x (R2-NOMAD f=50), the
  * effect growing with the average items-visited-per-user (w-bar).
  *
  * Our GEMM:scalar throughput ratio on the JVM is ~2-3x (vs MKL's ~10x over
  * the authors' scalar traversal), so the profitable head size is smaller
  * relative to w-bar than in the paper. We therefore lesion at two points:
  * the sweep's operating point (B=256) and a head sized to cover the diffuse
  * model's entire walk (B=2048 ≈ w-bar), which is the regime the paper's
  * B=4096 sits in for Netflix and where the ~2x GEMM effect shows fully.
  */
class LesionBench extends AnyFunSuite {

  /** (blockedMedian, unblockedMedian, wBarUnblocked) with a prebuilt index
    * so only walk time is measured, median of 3 runs. */
  private def lesion(modelName: String, b: Int): (Double, Double, Double) = {
    val model = ModelZoo.referenceModels().find(_.name == modelName).get
    val solver = new Recdex(numClusters = Sweep.RecdexC, blockSize = b)
    val idx = solver.prepare(model.items).asInstanceOf[RecdexPrepared]
      .buildUserIndexImpl(model.users)
    idx.queryAllLesion(1, shareBlocked = true) // warm
    idx.queryAllLesion(1, shareBlocked = false)
    def median(share: Boolean): Double =
      (0 until 3).map { _ =>
        val t0 = System.nanoTime()
        idx.queryAllLesion(1, shareBlocked = share)
        (System.nanoTime() - t0) / 1e9
      }.sorted.apply(1)
    val (_, wBar) = idx.queryAllCounting(1, shareBlocked = false)
    (median(true), median(false), wBar)
  }

  test("Fig. 8: blocked work sharing speeds up RECDEX") {
    Sweep.warmup()
    val rows = Seq(
      ("Netflix-NOMAD-f50", Sweep.RecdexB, "operating point"),
      ("R2-NOMAD-f50",      Sweep.RecdexB, "operating point"),
      ("Netflix-NOMAD-f50", 2048,          "head covers w-bar [paper 2.4x]"),
      ("R2-NOMAD-f50",      512,           "head ~ w-bar       [paper 1.4x]"),
    ).map { case (m, b, note) =>
      val (wb, wo, wbar) = lesion(m, b)
      (m, b, note, wb, wo, wbar)
    }

    println()
    println("=" * 100)
    println("Fig. 8 lesion (measured): RECDEX K=1 walk time with/without §5.4 blocked work sharing")
    println(f"${"model"}%-20s ${"B"}%6s ${"blocked(s)"}%11s ${"unblocked(s)"}%13s ${"speedup"}%9s ${"w-bar"}%8s  note")
    rows.foreach { case (m, b, note, wb, wo, wbar) =>
      println(f"$m%-20s $b%6d $wb%11.3f $wo%13.3f ${wo / wb}%8.2fx $wbar%8.1f  $note")
    }
    println("=" * 100)

    // at the operating point, blocking must not hurt either model
    rows.take(2).foreach { case (m, b, _, wb, wo, _) =>
      assert(wo / wb > 0.92, s"$m B=$b: blocking slowdown ${wo / wb}")
    }
    // with the head covering the diffuse model's walk, the full GEMM effect
    // appears (the analog of the paper's 2.4x at B=4096)
    val bigHead = rows(2)
    assert(bigHead._5 / bigHead._4 > 1.4,
      s"full-head blocking speedup ${bigHead._5 / bigHead._4}")
    // and the larger-w-bar model benefits more in that regime
    val r2Head = rows(3)
    assert(bigHead._5 / bigHead._4 >= r2Head._5 / r2Head._4 * 0.9,
      "diffuse (large w-bar) model should benefit at least as much")
  }

  test("index construction + cost estimation overhead is a small fraction " +
      "(paper: ~1.8%) of end-to-end RECDEX serving") {
    val model = ModelZoo.referenceModels().find(_.name == "Netflix-NOMAD-f50").get
    val solver = new Recdex(numClusters = Sweep.RecdexC, blockSize = Sweep.RecdexB)
    val (prepared, prepSecs) = Sweep.time(solver.prepare(model.items))
    val (idx, buildSecs) = Sweep.time(
      prepared.asInstanceOf[RecdexPrepared].buildUserIndexImpl(model.users))
    val (_, walkSecs) = Sweep.time(idx.queryAll(1))
    val construction = prepSecs + buildSecs
    val overheadFrac = construction / (construction + walkSecs)
    println(f"RECDEX construction overhead: ${overheadFrac * 100}%.1f%% of end-to-end [paper ~1.8%%]")
    // construction (k-means + bound sort + list materialization) must be a
    // minority of end-to-end serving; the paper reports low single digits
    assert(overheadFrac < 0.5, s"construction overhead $overheadFrac")
  }
}
