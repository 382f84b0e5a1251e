package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.Sweep
import repro.mf.ModelZoo
import repro.sparkmips.SparkMips

/** spark-submit entrypoint: distributed exact top-K over a synthetic model.
  *
  * Usage: RunTopK [strategy] [nUsers] [nItems] [f] [k]
  *   strategy ∈ MM | LEMP | FEXIPRO-SI | FEXIPRO-SIR | RECDEX | RECOPT
  *
  * RECOPT times MM, LEMP and RECDEX on a user sample on the executors,
  * decides on the driver, and serves with the winner.
  */
object RunTopK {
  def main(args: Array[String]): Unit = {
    val strategy = args.lift(0).getOrElse("RECOPT")
    val nUsers = args.lift(1).map(_.toInt).getOrElse(20000)
    val nItems = args.lift(2).map(_.toInt).getOrElse(4000)
    val f = args.lift(3).map(_.toInt).getOrElse(50)
    val k = args.lift(4).map(_.toInt).getOrElse(10)

    // spark-submit provides spark.master; fall back to local[*] under sbt runMain
    val spark = SparkSession.builder.appName("repro-RunTopK")
      .master(sys.props.getOrElse("spark.master",
        sys.env.getOrElse("SPARK_MASTER", "local[*]")))
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()

    val (u, i) = ModelZoo.factorModel(nUsers, nItems, f,
      userClusters = 8, userSpread = 0.4, itemClusters = 12, itemSpread = 0.6,
      userNormSigma = 0.2, itemNormSigma = 0.4, seed = 7)
    val usersDf = SparkMips.toDf(spark, u, "user_id")
    val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)

    val t0 = System.nanoTime()
    val out =
      if (strategy == "RECOPT") {
        val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, k,
          Seq(Sweep.solverByName("LEMP"), Sweep.solverByName("RECDEX")))
        println(s"RECOPT chose ${report.chosen} " +
          report.estimates.map(e => f"${e.name}=${e.estTotalNanos / 1e9}%.2fs-est").mkString("[", " ", "]"))
        df
      } else {
        SparkMips.topKAll(spark, usersDf, itemsDf, k, Sweep.solverByName(strategy))
      }
    val n = out.count()
    println(f"produced $n rows in ${(System.nanoTime() - t0) / 1e9}%.2f s; sample:")
    out.orderBy("user_id", "rank").show(10)
    spark.stop()
  }
}
