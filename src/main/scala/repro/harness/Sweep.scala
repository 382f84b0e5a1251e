package repro.harness

import repro.core.{BruteForceMM, Matrix, MipsSolver}
import repro.fexipro.Fexipro
import repro.lemp.LempIndex
import repro.mf.ModelZoo
import repro.mf.ModelZoo.RefModel
import repro.recdex.Recdex
import repro.recopt.{RecOpt, RecOptConfig}
import repro.stats.TTest

/** The paper's §6 evaluation sweep, run once per JVM and shared by every
  * bench suite (Table 2, the Fig. 6 aggregates, EXPERIMENTS.md numbers).
  *
  * For every (reference model, K) combination it measures the full
  * end-to-end runtime of each strategy (index build + batch retrieval for
  * all users), then runs RECOPT for each optimizer pairing from Table 2 and
  * records what it chose, what that cost, and what an oracle would have
  * chosen.
  */
object Sweep {

  /** RECDEX blocking factor for the sweep. The paper uses B=4096 against
    * 17k–1.1M items; our item sets are 2k–12k, so we scale B to 256 to keep
    * a comparable head-to-catalog ratio (see DESIGN.md §5). */
  val RecdexB = 256
  val RecdexC = 8

  val Ks: Seq[Int] = Seq(1, 5, 10, 50)

  /** Strategy factory — fresh instances per combo so no state leaks. */
  def solverByName(name: String): MipsSolver = name match {
    case "MM"          => new BruteForceMM()
    case "LEMP"        => new LempIndex()
    case "FEXIPRO-SI"  => new Fexipro(useReduction = false)
    case "FEXIPRO-SIR" => new Fexipro(useReduction = true)
    case "RECDEX"      => new Recdex(numClusters = RecdexC, blockSize = RecdexB)
    case other         => throw new IllegalArgumentException(s"unknown strategy $other")
  }

  val AllStrategies: Seq[String] = Seq("MM", "LEMP", "FEXIPRO-SI", "FEXIPRO-SIR", "RECDEX")

  /** Table 2's optimizer pairings: name → index strategies offered to RECOPT
    * (MM is always implicit). */
  val Pairings: Seq[(String, Seq[String])] = Seq(
    "MM + LEMP"          -> Seq("LEMP"),
    "MM + FEXIPRO-SI"    -> Seq("FEXIPRO-SI"),
    "MM + FEXIPRO-SIR"   -> Seq("FEXIPRO-SIR"),
    "MM + RECDEX"        -> Seq("RECDEX"),
    "MM + LEMP + RECDEX" -> Seq("LEMP", "RECDEX"),
  )

  final case class PairingOutcome(
      pairing: String,
      chosen: String,
      /** did RECOPT pick the strategy with the lowest measured full runtime? */
      accurate: Boolean,
      /** optimizer overhead as a fraction of RECOPT's end-to-end runtime */
      overheadFrac: Double,
      recoptSeconds: Double,
      oracleSeconds: Double,
  )

  final case class Combo(
      model: String,
      k: Int,
      /** full end-to-end seconds per strategy (build + all-user retrieval) */
      fullSeconds: Map[String, Double],
      pairings: Seq[PairingOutcome],
  ) {
    def fastest: String = fullSeconds.minBy { case (n, s) => (s, n) }._1
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Full end-to-end run of one strategy: build + batch retrieval for all users. */
  def runFull(strategy: String, users: Matrix, items: Matrix, k: Int): Double =
    time(solverByName(strategy).prepare(items).queryBatch(users, k))._2

  def runCombo(model: RefModel, k: Int, cfg: RecOptConfig): Combo = {
    val fulls = AllStrategies.map(s => s -> runFull(s, model.users, model.items, k)).toMap
    val outcomes = Pairings.map { case (pname, indexNames) =>
      val (_, report) = RecOpt.serveAll(model.users, model.items, k,
        indexNames.map(solverByName), cfg)
      val candidates = "MM" +: indexNames
      val oracleName = candidates.minBy(n => (fulls(n), n))
      PairingOutcome(
        pairing = pname,
        chosen = report.chosen,
        accurate = report.chosen == oracleName,
        overheadFrac = report.wastedNanos.toDouble / math.max(1L, report.totalNanos),
        recoptSeconds = report.totalNanos / 1e9,
        oracleSeconds = fulls(oracleName),
      )
    }
    Combo(model.name, k, fulls, outcomes)
  }

  /** JIT warmup: one small end-to-end pass of every kernel. */
  def warmup(): Unit = {
    val (u, i) = ModelZoo.tiny(400, 300, 32, seed = 99)
    AllStrategies.foreach(s => runFull(s, u, i, 5))
    RecOpt.serveAll(u, i, 5, Seq(solverByName("LEMP"), solverByName("RECDEX")),
      RecOptConfig(sampleFraction = 0.05))
    ()
  }

  /** RECOPT config for the sweep. The paper's 4xL2 sample floor assumes
    * >=480k users; at our ~1/40 scale the floor is scaled proportionally
    * (8 KiB stand-in for the 1 MiB L2) so the sample stays a few percent of
    * the population, as in §4.1. */
  val SweepRecOptConfig: RecOptConfig =
    RecOptConfig(sampleFraction = 0.02, l2CacheBytes = 8L << 10)

  /** The full §6 sweep (12 models × K ∈ {1,5,10,50}), computed once per JVM. */
  lazy val results: Seq[Combo] = {
    warmup()
    val cfg = SweepRecOptConfig
    for {
      model <- ModelZoo.referenceModels()
      k <- Ks
    } yield {
      val c = runCombo(model, k, cfg)
      Console.err.println(f"[sweep] ${c.model}%-18s K=${c.k}%-3d fastest=${c.fastest}%-12s " +
        c.fullSeconds.toSeq.sortBy(_._1).map { case (n, s) => f"$n=$s%.2fs" }.mkString(" "))
      c
    }
  }

  // ---- Table 2 aggregation ----

  final case class Table2Row(
      pairing: String,
      accuracyPct: Double,
      avgOverheadPct: Double,
      stdDevOverheadPct: Double,
      /** avg speedup vs LEMP-only of: the pairing's index alone (None for 3-way) */
      indexOnlyVsLemp: Option[Double],
      recoptVsLemp: Double,
      oracleVsLemp: Double,
  )

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def table2(combos: Seq[Combo]): Seq[Table2Row] =
    Pairings.map { case (pname, indexNames) =>
      val rows = combos.map(c => (c, c.pairings.find(_.pairing == pname).get))
      val lempSecs = rows.map(_._1.fullSeconds("LEMP"))
      val acc = 100.0 * rows.count(_._2.accurate) / rows.size
      val ov = TTest.summarize(rows.map(_._2.overheadFrac * 100.0).toIndexedSeq)
      val indexOnly = indexNames match {
        case Seq(single) =>
          Some(mean(rows.map { case (c, _) => c.fullSeconds("LEMP") / c.fullSeconds(single) }))
        case _ => None
      }
      val recoptSp = mean(rows.zip(lempSecs).map { case ((_, p), l) => l / p.recoptSeconds })
      val oracleSp = mean(rows.zip(lempSecs).map { case ((_, p), l) => l / p.oracleSeconds })
      Table2Row(pname, acc, ov.mean, ov.stdDev, indexOnly, recoptSp, oracleSp)
    }

  /** Table 2 as text, a header line and a line per pairing: the one format every caller prints. */
  def table2Lines(rows: Seq[Table2Row]): Seq[String] =
    f"${"Optimizer Choices"}%-20s ${"Acc%"}%7s ${"AvgOvh%"}%8s ${"SdOvh%"}%7s ${"IdxOnly"}%8s ${"RECOPT"}%8s ${"Oracle"}%8s" +:
      rows.map { r =>
        val idx = r.indexOnlyVsLemp.fold("-")(v => f"$v%.2fx")
        f"${r.pairing}%-20s ${r.accuracyPct}%6.1f%% ${r.avgOverheadPct}%7.1f%% ${r.stdDevOverheadPct}%6.1f%% $idx%8s ${r.recoptVsLemp}%7.2fx ${r.oracleVsLemp}%7.2fx"
      }

  // ---- Fig. 6 text aggregates ----

  final case class EndToEndAggregates(
      recdexVsLempAvg: Double,
      recdexVsLempMax: Double,
      recdexVsFexSiAvg: Double,
      recdexVsMmAvg: Double,
      mmFasterThanRecdexPct: Double,
      winShare: Map[String, Int], // fastest-of {LEMP, MM, RECDEX} per combo
      mmFastestOfAllPct: Double,
  )

  def endToEndAggregates(combos: Seq[Combo]): EndToEndAggregates = {
    def ratio(a: String, b: String) = combos.map(c => c.fullSeconds(a) / c.fullSeconds(b))
    val lempOverRecdex = ratio("LEMP", "RECDEX")
    val threeWay = combos.map { c =>
      Seq("LEMP", "MM", "RECDEX").minBy(n => (c.fullSeconds(n), n))
    }
    EndToEndAggregates(
      recdexVsLempAvg = mean(lempOverRecdex),
      recdexVsLempMax = lempOverRecdex.max,
      recdexVsFexSiAvg = mean(ratio("FEXIPRO-SI", "RECDEX")),
      recdexVsMmAvg = mean(ratio("MM", "RECDEX")),
      mmFasterThanRecdexPct =
        100.0 * combos.count(c => c.fullSeconds("MM") < c.fullSeconds("RECDEX")) / combos.size,
      winShare = threeWay.groupBy(identity).view.mapValues(_.size).toMap,
      mmFastestOfAllPct =
        100.0 * combos.count(c => c.fastest == "MM") / combos.size,
    )
  }
}
