package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Sweep.{Combo, PairingOutcome}

/** The Table 2 / Fig. 6 aggregation math, tested on hand-built combos so the
  * bench numbers are trustworthy arithmetic, not just plausible printing.
  */
class SweepSpec extends AnyFunSuite {

  private def combo(model: String, k: Int, mm: Double, lemp: Double, fsi: Double,
                    fsir: Double, recdex: Double): Combo = {
    val fulls = Map("MM" -> mm, "LEMP" -> lemp, "FEXIPRO-SI" -> fsi,
      "FEXIPRO-SIR" -> fsir, "RECDEX" -> recdex)
    val pairings = Sweep.Pairings.map { case (pname, indexNames) =>
      val candidates = "MM" +: indexNames
      val oracleName = candidates.minBy(n => (fulls(n), n))
      // a perfect optimizer with zero overhead, for deterministic aggregation
      PairingOutcome(pname, oracleName, accurate = true, overheadFrac = 0.05,
        recoptSeconds = fulls(oracleName) * 1.05, oracleSeconds = fulls(oracleName))
    }
    Combo(model, k, fulls, pairings)
  }

  private val combos = Seq(
    combo("A", 1, mm = 2.0, lemp = 4.0, fsi = 8.0, fsir = 10.0, recdex = 1.0),
    combo("B", 1, mm = 6.0, lemp = 3.0, fsi = 9.0, fsir = 12.0, recdex = 2.0),
  )

  test("fastest strategy per combo") {
    assert(combos(0).fastest == "RECDEX")
    assert(combos(1).fastest == "RECDEX")
  }

  test("table2 rows cover every pairing in order") {
    val rows = Sweep.table2(combos)
    assert(rows.map(_.pairing) == Sweep.Pairings.map(_._1))
  }

  test("table2 accuracy and overhead aggregation") {
    val rows = Sweep.table2(combos)
    rows.foreach { r =>
      assert(r.accuracyPct == 100.0)
      assert(math.abs(r.avgOverheadPct - 5.0) < 1e-9)
      assert(math.abs(r.stdDevOverheadPct) < 1e-9)
    }
  }

  test("table2 index-only speedup vs LEMP (avg of per-combo ratios)") {
    val mmLemp = Sweep.table2(combos).find(_.pairing == "MM + LEMP").get
    // LEMP/LEMP = 1 in both combos
    assert(math.abs(mmLemp.indexOnlyVsLemp.get - 1.0) < 1e-9)
    val rd = Sweep.table2(combos).find(_.pairing == "MM + RECDEX").get
    // ratios: 4/1 and 3/2 -> avg 2.75
    assert(math.abs(rd.indexOnlyVsLemp.get - 2.75) < 1e-9)
  }

  test("table2 oracle speedup vs LEMP") {
    val mmLemp = Sweep.table2(combos).find(_.pairing == "MM + LEMP").get
    // oracle(MM,LEMP): combo A -> 2.0 (ratio 2), combo B -> 3.0 (ratio 1) -> avg 1.5
    assert(math.abs(mmLemp.oracleVsLemp - 1.5) < 1e-9)
    // recopt = oracle * 1.05 -> avg ratio 1.5/1.05
    assert(math.abs(mmLemp.recoptVsLemp - 1.5 / 1.05) < 1e-9)
  }

  test("three-way pairing has no index-only column") {
    val row = Sweep.table2(combos).find(_.pairing == "MM + LEMP + RECDEX").get
    assert(row.indexOnlyVsLemp.isEmpty)
  }

  test("endToEndAggregates arithmetic") {
    val agg = Sweep.endToEndAggregates(combos)
    // LEMP/RECDEX: 4/1=4 and 3/2=1.5 -> avg 2.75, max 4
    assert(math.abs(agg.recdexVsLempAvg - 2.75) < 1e-9)
    assert(math.abs(agg.recdexVsLempMax - 4.0) < 1e-9)
    // MM/RECDEX: 2 and 3 -> avg 2.5; MM never faster than RECDEX here
    assert(math.abs(agg.recdexVsMmAvg - 2.5) < 1e-9)
    assert(agg.mmFasterThanRecdexPct == 0.0)
    assert(agg.winShare == Map("RECDEX" -> 2))
    assert(agg.mmFastestOfAllPct == 0.0)
  }

  test("solverByName covers all strategies and rejects unknowns") {
    Sweep.AllStrategies.foreach(s => assert(Sweep.solverByName(s).name == s))
    assertThrows[IllegalArgumentException](Sweep.solverByName("nope"))
  }

  test("Table1 rows carry the paper's counts") {
    val rows = Table1.rows
    assert(rows.map(_.dataset) == Seq("Netflix", "KDD", "R2", "GloVe-Twitter"))
    assert(rows.find(_.dataset == "Netflix").get.paperRatings == 100480507L)
    assert(rows.find(_.dataset == "GloVe-Twitter").get.paperRatings == -1L)
    assert(Table1.render().contains("480189"))
  }

  test("runFull produces a positive runtime and runCombo a full record") {
    // tiny end-to-end smoke of the sweep machinery (not the full sweep)
    val (u, i) = repro.mf.ModelZoo.tiny(120, 60, 8, seed = 3)
    val model = repro.mf.ModelZoo.RefModel("tiny", "Netflix", 8, 1, 1, 1, u, i)
    val c = Sweep.runCombo(model, 2, repro.recopt.RecOptConfig(sampleFraction = 0.1))
    assert(c.fullSeconds.keySet == Sweep.AllStrategies.toSet)
    assert(c.fullSeconds.values.forall(_ > 0))
    assert(c.pairings.map(_.pairing) == Sweep.Pairings.map(_._1))
    c.pairings.foreach { p =>
      assert(p.recoptSeconds > 0 && p.oracleSeconds > 0)
      assert(p.overheadFrac >= 0 && p.overheadFrac <= 1.0)
    }
  }
}
