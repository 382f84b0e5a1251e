package repro.jobs

import repro.harness.Sweep

/** spark-submit entrypoint: run the full §6 sweep and print Table 2 plus the
  * Fig. 6 end-to-end aggregates. (Single-machine kernels; Spark not needed.)
  */
object RunTable2 {
  def main(args: Array[String]): Unit = {
    val combos = Sweep.results
    println("Table 2: Effectiveness of the online optimizer (measured)")
    Sweep.table2Lines(Sweep.table2(combos)).foreach(println)
    val agg = Sweep.endToEndAggregates(combos)
    println(f"\nFig. 6 aggregates: RECDEX vs LEMP avg=${agg.recdexVsLempAvg}%.2fx max=${agg.recdexVsLempMax}%.2fx; " +
      f"RECDEX vs FEXIPRO-SI avg=${agg.recdexVsFexSiAvg}%.2fx; MM faster than RECDEX in ${agg.mmFasterThanRecdexPct}%.1f%% of combos; " +
      s"3-way win share=${agg.winShare}")
  }
}
