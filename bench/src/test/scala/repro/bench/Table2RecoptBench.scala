package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Sweep

/** Table 2 — effectiveness of the online optimizer, measured on the scaled
  * reference sweep (12 models × K ∈ {1,5,10,50} = 48 combinations).
  *
  * Paper numbers for reference (92 combinations at full scale):
  *
  *   Optimizer Choices     Acc    AvgOvh  SdOvh  IdxOnly  RECOPT  Oracle
  *   MM + LEMP             89.1%   4.3%    4.2%   1.00x    2.81x   3.08x
  *   MM + FEXIPRO-SI       97.8%   6.4%    8.1%   0.50x    2.60x   2.93x
  *   MM + FEXIPRO-SIR      97.8%   6.4%    7.8%   0.43x    2.56x   2.88x
  *   MM + RECDEX           93.5%   5.5%    5.9%   1.78x    3.15x   3.43x
  *   MM + LEMP + RECDEX    84.8%   9.1%    8.4%   -        2.99x   3.48x
  *
  * We assert the qualitative shape, not the absolute numbers: RECOPT must
  * recover most of the oracle speedup at modest overhead for every pairing,
  * and must rescue the slow FEXIPRO pairings (index-only < 1x vs LEMP)
  * to above-LEMP speed.
  */
class Table2RecoptBench extends AnyFunSuite {

  test("Table 2: online optimizer effectiveness") {
    val combos = Sweep.results
    val rows = Sweep.table2(combos)

    println()
    println("=" * 100)
    println(s"Table 2 (measured, ${combos.size} model/top-K combinations)")
    Sweep.table2Lines(rows).foreach(println)
    println("=" * 100)

    rows.foreach { r =>
      // classification accuracy well above chance for every pairing
      assert(r.accuracyPct >= 70.0, s"${r.pairing}: accuracy ${r.accuracyPct}")
      // sampling keeps overhead modest (paper: 4.3–9.1%)
      assert(r.avgOverheadPct <= 25.0, s"${r.pairing}: overhead ${r.avgOverheadPct}")
      // RECOPT must land within 40% of the oracle speedup (paper: within ~15%)
      assert(r.recoptVsLemp >= 0.6 * r.oracleVsLemp,
        s"${r.pairing}: recopt ${r.recoptVsLemp} vs oracle ${r.oracleVsLemp}")
    }

    // RECOPT rescues the FEXIPRO pairings: index-only is slower than LEMP,
    // but with the optimizer the pairing beats LEMP-only (the paper's
    // headline Table 2 observation).
    val fsir = rows.find(_.pairing == "MM + FEXIPRO-SIR").get
    assert(fsir.indexOnlyVsLemp.get < 1.0,
      s"FEXIPRO-SIR alone should be slower than LEMP: ${fsir.indexOnlyVsLemp.get}")
    assert(fsir.recoptVsLemp > 1.0,
      s"RECOPT should lift MM+FEXIPRO-SIR above LEMP: ${fsir.recoptVsLemp}")

    // MM + RECDEX is the strongest two-way pairing, beating MM + LEMP (paper:
    // 3.15x vs 2.81x)
    val rd = rows.find(_.pairing == "MM + RECDEX").get
    val lemp = rows.find(_.pairing == "MM + LEMP").get
    assert(rd.recoptVsLemp > 1.0, s"MM+RECDEX must beat LEMP-only: ${rd.recoptVsLemp}")
    assert(rd.recoptVsLemp >= lemp.recoptVsLemp * 0.8,
      s"MM+RECDEX (${rd.recoptVsLemp}) should be competitive with MM+LEMP (${lemp.recoptVsLemp})")
  }
}
