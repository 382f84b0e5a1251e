package repro.sparkmips

import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropSupport, SparkSpec}
import repro.core.{BruteForceMM, Matrix, MipsSolver, PreparedMips, TopKResult}
import repro.lemp.LempIndex
import repro.mf.ModelZoo
import repro.mips.SolverTestSupport
import repro.recdex.Recdex
import repro.recopt.{RecOpt, RecOptConfig}

/** Distributed serving correctness.
  *
  * The DuckDB oracle tests use integer-valued vectors so inner products are
  * exactly representable and the (score desc, item_id asc) tie-break is
  * bit-identical on both engines — the oracle then proves the whole Spark
  * path (DataFrame → partition blocks → kernel → rows) end to end.
  */
class SparkMipsSpec extends SparkSpec with PropSupport {

  /** Integer-valued model (coords in [-4, 4]) for exact cross-engine checks. */
  private def intModel(nu: Int, ni: Int, f: Int, seed: Long): (Matrix, Matrix) = {
    val rng = new scala.util.Random(seed)
    def mk(n: Int) = Matrix.tabulate(n, f)((_, _) => (rng.nextInt(9) - 4).toDouble)
    (mk(nu), mk(ni))
  }

  /** Flatten an embedding matrix to one column per dimension (DuckDB side). */
  private def flatDf(m: Matrix, idCol: String): DataFrame = {
    val f = m.cols
    val schema = StructType(
      StructField(idCol, LongType, nullable = false) +:
        (0 until f).map(d => StructField(s"d$d", DoubleType, nullable = false)))
    val rows = (0 until m.rows).map(r => Row.fromSeq(r.toLong +: m.row(r).toSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  private def mipsSql(f: Int, k: Int): String = {
    val dotExpr = (0 until f)
      .map(d => s"CAST(u.d$d AS DOUBLE) * CAST(i.d$d AS DOUBLE)").mkString(" + ")
    // the oracle stores every input column as VARCHAR — cast ids back to
    // BIGINT so the tie-break orders numerically, not lexicographically
    s"""
       |SELECT user_id, item_id, rank, score FROM (
       |  SELECT u.user_id AS user_id, i.item_id AS item_id,
       |         ($dotExpr) AS score,
       |         ROW_NUMBER() OVER (PARTITION BY u.user_id
       |                            ORDER BY ($dotExpr) DESC,
       |                                     CAST(i.item_id AS BIGINT) ASC) AS rank
       |  FROM users u CROSS JOIN items i
       |) WHERE rank <= $k
       |""".stripMargin
  }

  for ((label, solverF) <- Seq(
      "MM"     -> (() => new BruteForceMM()),
      "LEMP"   -> (() => new LempIndex()),
      "RECDEX" -> (() => new Recdex(numClusters = 3, blockSize = 8))))
    test(s"topKAll($label) matches the DuckDB oracle on integer vectors") {
      val (u, i) = intModel(40, 25, 4, seed = label.hashCode)
      val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 4)
      val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
      val out = SparkMips.topKAll(spark, usersDf, itemsDf, 3, solverF())
      Oracle.assertEquivalent(out, mipsSql(4, 3),
        "users" -> flatDf(u, "user_id"), "items" -> flatDf(i, "item_id"))
    }

  test("topKAll matches the local reference on continuous vectors") {
    val (u, i) = ModelZoo.tiny(120, 60, 10, seed = 83)
    val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 6)
    val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
    val out = SparkMips.topKAll(spark, usersDf, itemsDf, 5, new Recdex(3, 8))
      .collect()
      .groupBy(_.getLong(0))
    val expect = SolverTestSupport.bruteForce(u, i, 5)
    (0 until 120).foreach { uid =>
      val rows = out(uid.toLong).sortBy(_.getInt(2))
      val e = expect(uid)
      assert(rows.length == 5)
      rows.zipWithIndex.foreach { case (r, rank) =>
        assert(r.getLong(1) == e.ids(rank), s"user $uid rank $rank")
        assert(math.abs(r.getDouble(3) - e.scores(rank)) < 1e-9)
      }
    }
  }

  test("topKAll emits ranks 1..k per user") {
    val (u, i) = intModel(15, 10, 3, seed = 7)
    val out = SparkMips.topKAll(spark,
      SparkMips.toDf(spark, u, "user_id", 3),
      SparkMips.toDf(spark, i, "item_id", 1), 4, new BruteForceMM())
    val counts = out.groupBy("user_id").count().collect()
    assert(counts.length == 15)
    assert(counts.forall(_.getLong(1) == 4))
    val ranks = out.select("rank").distinct().collect().map(_.getInt(0)).sorted
    assert(ranks.toSeq == Seq(1, 2, 3, 4))
  }

  test("collectMatrix round-trips toDf") {
    val m = Matrix.randn(20, 5, seed = 31)
    val df = SparkMips.toDf(spark, m, "item_id", 2)
    val (ids, back) = SparkMips.collectMatrix(df, "item_id")
    val order = ids.zipWithIndex.sortBy(_._1).map(_._2)
    order.zipWithIndex.foreach { case (srcRow, dst) =>
      assert(back.row(srcRow).toSeq == m.row(dst).toSeq)
    }
  }

  test("collectMatrix rejects an empty items DataFrame, naming the items") {
    val empty = SparkMips.toDf(spark, Matrix.randn(5, 3, seed = 1), "item_id", 1).limit(0)
    val e = intercept[IllegalArgumentException](SparkMips.collectMatrix(empty, "item_id"))
    assert(e.getMessage.contains("items DataFrame is empty"), e.getMessage)
  }

  test("topKAllWithRecOpt serves exactly and reports a valid choice") {
    val (u, i) = ModelZoo.tiny(250, 80, 8, seed = 89, concentrated = true)
    val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 4)
    val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
    val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, 3,
      Seq(new LempIndex(), new Recdex(3, 8)), RecOptConfig(sampleFraction = 0.1))
    assert(Seq("MM", "LEMP", "RECDEX").contains(report.chosen))
    val got = df.collect().groupBy(_.getLong(0))
    val expect = SolverTestSupport.bruteForce(u, i, 3)
    assert(got.size == 250)
    (0 until 250).foreach { uid =>
      val rows = got(uid.toLong).sortBy(_.getInt(2))
      assert(rows.map(_.getInt(2)).toSeq == Seq(1, 2, 3), s"user $uid ranks")
      rows.zipWithIndex.foreach { case (r, rank) =>
        assert(r.getLong(1) == expect(uid).ids(rank), s"user $uid rank $rank id")
        assert(math.abs(r.getDouble(3) - expect(uid).scores(rank)) < 1e-9,
          s"user $uid rank $rank")
      }
    }
  }

  /** Counts `prepare` calls, which run on the driver only, and wraps each
    * prepared strategy so that it counts the users it serves. */
  private final class CountingSolver(inner: MipsSolver) extends MipsSolver {
    var prepares = 0
    override def name: String = inner.name
    override def prepare(items: Matrix): PreparedMips = {
      prepares += 1
      new SparkMipsSpec.CountingPrepared(name, inner.prepare(items))
    }
  }

  /** Users of [[dominantItemModel]]. */
  private val DominantUsers = 2400

  /** One dominant item aligned with every user: LEMP's first item is the
    * answer and its length bound prunes the rest, while MM scores all 3000
    * items, so an index wins RECOPT. Every user's top-1 is item 0. The
    * users are many because MM's estimate grows with them and LEMP's build
    * does not: with 600, LEMP's build (run once per call, so never
    * JIT-compiled) took about as long as MM's whole estimate and MM won
    * some runs. */
  private def dominantItemModel: (Matrix, Matrix) = {
    val f = 16
    val dir = Array.tabulate(f)(d => if (d % 2 == 0) 1.0 else 0.5)
    val noise = Matrix.randn(DominantUsers, f, seed = 5)
    val u = Matrix.tabulate(DominantUsers, f)((r, d) => 3 * dir(d) + 0.3 * noise(r, d))
    val small = Matrix.randn(3000, f, seed = 6)
    (u, Matrix.tabulate(3000, f)((r, d) => if (r == 0) 100 * dir(d) else 0.2 * small(r, d)))
  }

  test("topKAllWithRecOpt prepares each candidate once and serves with it") {
    // an index wins, so the test sees the winner's prepare count
    val (u, i) = dominantItemModel
    val (usersDf, itemsDf) = (SparkMips.toDf(spark, u, "user_id", 4), SparkMips.toDf(spark, i, "item_id", 1))
    // One call first to compile LEMP's point query: before the JIT has, it
    // ran 20-40x slower per user than after and MM won the estimate.
    SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, 1,
      Seq(new LempIndex(), new Recdex(3, 8)), RecOptConfig(sampleFraction = 1.0))._1.count()
    val lemp = new CountingSolver(new LempIndex())
    val recdex = new CountingSolver(new Recdex(3, 8))
    val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, 1,
      Seq(lemp, recdex), RecOptConfig(sampleFraction = 1.0))
    val rows = df.collect()
    assert(report.chosen != "MM", s"estimates ${report.estimates}")
    assert(lemp.prepares == 1 && recdex.prepares == 1,
      s"prepares: LEMP ${lemp.prepares}, RECDEX ${recdex.prepares}")
    assert(rows.length == DominantUsers && rows.forall(_.getLong(1) == 0L))
  }

  test("topKAllWithRecOpt serves every user from the winner's binding after the timing pass") {
    // at fraction 1 every user is timed, up to the winner's t-test stop; the
    // serve then runs the winner's binding over every user once more
    val (u, i) = dominantItemModel
    SparkMipsSpec.queried.clear()
    val (df, report) = SparkMips.topKAllWithRecOpt(spark,
      SparkMips.toDf(spark, u, "user_id", 4), SparkMips.toDf(spark, i, "item_id", 1), 1,
      Seq(new CountingSolver(new LempIndex()), new CountingSolver(new Recdex(3, 8))),
      RecOptConfig(sampleFraction = 1.0))
    val rows = df.collect()
    assert(report.chosen != "MM", s"estimates ${report.estimates}")
    assert(rows.length == DominantUsers && rows.forall(_.getLong(1) == 0L))
    assert(report.sampleSize == DominantUsers)
    val winner = report.estimates.find(_.name == report.chosen).get
    assert(SparkMipsSpec.queried.get(report.chosen).get() == winner.usersTimed + DominantUsers,
      s"users served by ${report.chosen}")
  }

  /** Value of a per-strategy counter, 0 if never incremented. */
  private def counted(counter: java.util.Map[String, AtomicLong], name: String): Long =
    Option(counter.get(name)).fold(0L)(_.get())

  test("Spark RECOPT builds RECDEX's user index once per partition, in the timing pass") {
    val (u, i) = dominantItemModel
    val usersDf = SparkMips.toDf(spark, u, "user_id", 4)
    val partitions = usersDf.rdd.mapPartitions(it => Iterator(it.nonEmpty)).collect().count(identity)
    SparkMipsSpec.userIndexBuilds.clear()
    SparkMipsSpec.batchCalls.clear()
    val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf,
      SparkMips.toDf(spark, i, "item_id", 1), 1,
      Seq(new CountingSolver(new LempIndex()), new CountingSolver(new Recdex(3, 8))),
      RecOptConfig(sampleFraction = 0.5))
    assert(report.sampleSize > 0 && report.sampleSize < DominantUsers)
    assert(counted(SparkMipsSpec.userIndexBuilds, "RECDEX") == partitions)
    val rows = df.collect()
    assert(counted(SparkMipsSpec.userIndexBuilds, "RECDEX") == partitions, s"chosen ${report.chosen}")
    assert(counted(SparkMipsSpec.batchCalls, "RECDEX") == 0, s"chosen ${report.chosen}")
    val expect = SolverTestSupport.bruteForce(u, i, 1)
    assert(rows.length == DominantUsers)
    rows.foreach { r =>
      val e = expect(r.getLong(0).toInt)
      assert(r.getLong(1) == e.ids(0) && r.getInt(2) == 1, s"user ${r.getLong(0)}")
      assert(math.abs(r.getDouble(3) - e.scores(0)) < 1e-9, s"user ${r.getLong(0)}")
    }
  }

  test("on one partition at fraction 1, Spark RECOPT times what local serveAll times") {
    val (u, i) = ModelZoo.tiny(300, 80, 8, seed = 139, concentrated = true)
    val cfg = RecOptConfig(sampleFraction = 1.0)
    SparkMipsSpec.userIndexBuilds.clear()
    val (_, local) = RecOpt.serveAll(u, i, 3, Seq(new CountingSolver(new Recdex(3, 8))), cfg)
    val localBuilds = counted(SparkMipsSpec.userIndexBuilds, "RECDEX")
    SparkMipsSpec.userIndexBuilds.clear()
    val (_, onSpark) = SparkMips.topKAllWithRecOpt(spark, SparkMips.toDf(spark, u, "user_id", 1),
      SparkMips.toDf(spark, i, "item_id", 1), 3, Seq(new CountingSolver(new Recdex(3, 8))), cfg)
    assert(onSpark.estimates.map(_.name) == Seq("MM", "RECDEX"))
    assert(local.estimates.map(_.name) == Seq("MM", "RECDEX"))
    // MM is timed on every user; RECDEX's count depends on the t-test
    assert(onSpark.estimates.head.usersTimed == 300 && local.estimates.head.usersTimed == 300)
    assert(onSpark.sampleSize == local.sampleSize)
    // both build one user index over all 300 users
    assert(localBuilds == 1 && counted(SparkMipsSpec.userIndexBuilds, "RECDEX") == 1)
  }

  /** Users whose first feature is their id, so [[SparkMipsSpec.RecordingPrepared]]
    * sees the ids. */
  private def idFirstUsers(n: Int, seed: Long): Matrix = {
    val rng = new scala.util.Random(seed)
    Matrix.tabulate(n, 4)((r, d) => if (d == 0) r.toDouble else rng.nextGaussian())
  }

  private val recording = new MipsSolver {
    override def name: String = "RECORDING"
    override def prepare(items: Matrix): PreparedMips =
      new SparkMipsSpec.RecordingPrepared(new BruteForceMM().prepare(items))
  }

  /** Ids of the users [[SparkMipsSpec.RecordingPrepared]] was timed on, in
    * call order. */
  private def recorded: Seq[Long] = SparkMipsSpec.timedCalls.asScala.toSeq.flatten

  test("on one partition, Spark RECOPT times MM on exactly sampleIndices' rows") {
    val usersDf = SparkMips.toDf(spark, idFirstUsers(300, 131), "user_id", 1)
    val items = SparkMips.toDf(spark, Matrix.randn(40, 4, seed = 137), "item_id", 1)
    for (fraction <- Seq(0.05, 0.1, 0.3, 0.5, 0.8)) {
      val cfg = RecOptConfig(sampleFraction = fraction)
      SparkMipsSpec.timedCalls.clear()
      val (_, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, items, 2, Seq(recording), cfg)
      val local = RecOpt.sampleIndices(300, 4, cfg).map(_.toLong)
      val Seq(mm, rec) = report.estimates
      assert(report.chosen == "MM")
      assert(mm.usersTimed == local.length && report.sampleSize == local.length, s"fraction $fraction")
      // every candidate walks the same sampled rows; the sleeping one stops early
      assert(rec.usersTimed == recorded.length && recorded.nonEmpty)
      assert(recorded == local.take(recorded.length).toSeq, s"fraction $fraction")
    }
  }

  /** What a block of `n` rows samples: its fraction, rounded up, at least
    * one row and at most `n`. */
  private def blockSample(n: Int, fraction: Double): Int =
    math.min(n, math.max(1, math.ceil(fraction * n).toInt))

  test("on 4 partitions, each partition samples its fraction, rounded up, at least one row") {
    val usersDf = SparkMips.toDf(spark, idFirstUsers(300, 131), "user_id", 4)
    val items = SparkMips.toDf(spark, Matrix.randn(40, 4, seed = 137), "item_id", 1)
    val sizes = usersDf.rdd.mapPartitions(it => Iterator(it.size)).collect()
    assert(sizes.toSeq == Seq(75, 75, 75, 75))
    for (fraction <- Seq(0.0, 0.05, 0.3, 0.5, 1.0)) {
      val cfg = RecOptConfig(sampleFraction = fraction)
      val (_, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, items, 2, Seq.empty, cfg)
      assert(report.sampleSize == sizes.map(blockSample(_, fraction)).sum, s"fraction $fraction")
      assert(report.totalUsers == 300)
    }
    assert(Seq(0.0, 0.05, 0.3, 0.5, 1.0).map(blockSample(75, _)) == Seq(1, 4, 23, 38, 75))
  }

  checkProp("property: on skewed partitions, each non-empty partition samples by the " +
      "per-block rule and RECOPT serves brute force's rows", minTests = 8) {
    // four partitions of 150 users; the filter keeps the first n_p of partition p
    val u = idFirstUsers(600, 157)
    val i = Matrix.randn(40, 4, seed = 158)
    val all = SparkMips.toDf(spark, u, "user_id", 4)
    val items = SparkMips.toDf(spark, i, "item_id", 1)
    val expect = SolverTestSupport.bruteForce(u, i, 2)
    val size = Gen.frequency(1 -> Gen.const(0), 1 -> Gen.oneOf(10, 50, 140), 2 -> Gen.choose(1, 150))
    Prop.forAllNoShrink(Gen.listOfN(4, size).suchThat(_.sum > 0), Gen.oneOf(0.0, 0.05, 0.1, 0.2)) {
        (sizes, fraction) =>
      val kept = sizes.zipWithIndex.flatMap { case (n, p) => (0 until n).map(r => 150L * p + r) }
      val usersDf = all.where(col("user_id").isin(kept: _*))
      SparkMipsSpec.timedCalls.clear()
      // each partition samples at most 30 rows (ceil(0.2 * 150) = 30), two
      // chunks, all of which the spinning candidate is timed on before its
      // t-test can stop it
      val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, items, 2, Seq(recording),
        RecOptConfig(sampleFraction = fraction))
      val perPartition = recorded.groupBy(id => (id / 150).toInt).map { case (p, ids) => p -> ids.size }
      val want = sizes.zipWithIndex.collect { case (n, p) if n > 0 => p -> blockSample(n, fraction) }
      val rows = df.collect().map(r => (r.getLong(0), r.getInt(2), r.getLong(1), r.getDouble(3))).sorted
      val bruteRows = kept.flatMap(id => (0 until 2).map(r =>
        (id, r + 1, expect(id.toInt).ids(r).toLong, expect(id.toInt).scores(r))))
      val ok = perPartition == want.toMap && recorded.distinct.length == recorded.length &&
        report.sampleSize == want.map(_._2).sum && report.sampleSize >= fraction * kept.length &&
        report.totalUsers == kept.length &&
        rows.toSeq == bruteRows
      if (!ok) println(s"sizes $sizes fraction $fraction: sampled $perPartition, want $want")
      ok
    }
  }

  test("RECOPT's eager phase runs two Spark jobs, and its serve one more at the action") {
    val (u, i) = ModelZoo.tiny(200, 60, 8, seed = 163, concentrated = true)
    val (usersDf, itemsDf) = (SparkMips.toDf(spark, u, "user_id", 4), SparkMips.toDf(spark, i, "item_id", 1))
    val sc = spark.sparkContext
    val started = new java.util.concurrent.ConcurrentLinkedQueue[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.add(e.jobId)
    }
    sc.addSparkListener(listener)
    try {
      ListenerBusAccess.drain(sc)
      started.clear()
      val (df, _) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, 3,
        Seq(new LempIndex(), new Recdex(3, 8)), RecOptConfig(sampleFraction = 0.2))
      ListenerBusAccess.drain(sc)
      assert(started.size == 2, s"eager jobs ${started.asScala}: item collect and timing pass")
      assert(df.collect().length == 600)
      ListenerBusAccess.drain(sc)
      assert(started.size == 3, s"jobs ${started.asScala}")
    } finally sc.removeSparkListener(listener)
  }

  test("report: sample covers every user at fraction 1, waste is every sampled serve and the losers' builds") {
    val (u, i) = ModelZoo.tiny(200, 60, 8, seed = 113)
    val (_, report) = SparkMips.topKAllWithRecOpt(spark,
      SparkMips.toDf(spark, u, "user_id", 4), SparkMips.toDf(spark, i, "item_id", 1), 2,
      Seq(new LempIndex()), RecOptConfig(sampleFraction = 1.0))
    assert(report.sampleSize == 200 && report.totalUsers == 200)
    assert(report.estimates.map(_.name) == Seq("MM", "LEMP"))
    val loser = report.estimates.find(_.name != report.chosen).get
    assert(report.wastedNanos == loser.buildNanos +
      report.estimates.map(e => math.round(e.perUserNanos * e.usersTimed)).sum)
    assert(report.totalNanos > 0)
  }

  test("at fraction 0, every non-empty partition times a user and RECOPT serves exactly") {
    // five partitions of four users; the filter empties the middle two
    val u = idFirstUsers(20, 127)
    val i = Matrix.randn(30, 4, seed = 128)
    val usersDf = SparkMips.toDf(spark, u, "user_id", 5)
      .where(col("user_id") < 8 || col("user_id") >= 16)
    val partitionOf = usersDf.rdd.mapPartitionsWithIndex((p, it) => it.map(_.getLong(0) -> p))
      .collect().toMap
    assert(partitionOf.values.toSet == Set(0, 1, 4))
    SparkMipsSpec.timedCalls.clear()
    // a fraction of 0 is raised to one user per non-empty partition
    val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf,
      SparkMips.toDf(spark, i, "item_id", 1), 2, Seq(recording), RecOptConfig(sampleFraction = 0.0))
    assert(report.sampleSize == 3 && report.estimates.forall(_.usersTimed == 3))
    assert(recorded.map(partitionOf).sorted == Seq(0, 1, 4))
    val expect = SolverTestSupport.bruteForce(u, i, 2)
    val rows = df.collect()
    assert(rows.length == 24 && rows.map(_.getLong(0)).toSet == partitionOf.keySet)
    rows.foreach { r =>
      val e = expect(r.getLong(0).toInt)
      assert(r.getLong(1) == e.ids(r.getInt(2) - 1), s"user ${r.getLong(0)}")
      assert(math.abs(r.getDouble(3) - e.scores(r.getInt(2) - 1)) < 1e-9, s"user ${r.getLong(0)}")
    }
  }

  test("a second action, and one after the kept blocks are dropped, serve the same rows") {
    val (u, i) = ModelZoo.tiny(200, 60, 8, seed = 149, concentrated = true)
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val (df, _) = SparkMips.topKAllWithRecOpt(spark, SparkMips.toDf(spark, u, "user_id", 4),
      SparkMips.toDf(spark, i, "item_id", 1), 3, Seq(new LempIndex(), new Recdex(3, 8)),
      RecOptConfig(sampleFraction = 0.2))
    def served = df.collect().map(r => (r.getLong(0), r.getInt(2), r.getLong(1), r.getDouble(3))).sorted.toSeq
    val first = served
    assert(first.length == 600)
    assert(served == first)
    spark.sparkContext.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!before.contains(id)) rdd.unpersist(blocking = true)
    }
    assert(served == first)
  }

  private def itemsDf: DataFrame = SparkMips.toDf(spark, Matrix.randn(10, 3, seed = 2), "item_id", 1)

  test("both entrypoints reject k < 1 on the driver") {
    val users = SparkMips.toDf(spark, Matrix.randn(5, 3, seed = 1), "user_id", 2)
    val e1 = intercept[IllegalArgumentException](
      SparkMips.topKAll(spark, users, itemsDf, 0, new BruteForceMM()))
    val e2 = intercept[IllegalArgumentException](
      SparkMips.topKAllWithRecOpt(spark, users, itemsDf, 0, Seq(new LempIndex())))
    assert(e1.getMessage.contains("k must be >= 1, got 0"))
    assert(e2.getMessage == e1.getMessage)
  }

  test("topKAllWithRecOpt rejects an empty users DataFrame on the driver") {
    val users = SparkMips.toDf(spark, Matrix.randn(5, 3, seed = 1), "user_id", 2).limit(0)
    val e = intercept[IllegalArgumentException](
      SparkMips.topKAllWithRecOpt(spark, users, itemsDf, 2, Seq(new LempIndex())))
    assert(e.getMessage.contains("users DataFrame is empty"))
    // topKAll does not count its users: no users, no rows
    assert(SparkMips.topKAll(spark, users, itemsDf, 2, new BruteForceMM()).count() == 0)
  }

  /** Five `(id, features)` rows of dimension 3 whose row 3 is `bad` if
    * given; ids and features are nullable so `bad` may hold nulls. */
  private def rowsDf(idCol: String, bad: Option[Row]): DataFrame = {
    val m = Matrix.randn(5, 3, seed = 3)
    val schema = StructType(Seq(
      StructField(idCol, LongType, nullable = true),
      StructField("features", ArrayType(DoubleType, containsNull = true), nullable = true)))
    val rows = (0 until 5).map(r => bad.filter(_ => r == 3).getOrElse(Row(r.toLong, m.row(r).toSeq)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  /** A bad user row fails both entrypoints (in the serve and in RECOPT's
    * timing job) and a bad item row fails on the driver, each with a
    * message that starts with the row's kind followed by `message`. */
  private def assertRejects(bad: Row, message: String): Unit = {
    def failure(body: => Any): String = intercept[Exception](body).getMessage
    val badUsers = rowsDf("user_id", Some(bad))
    val items = rowsDf("item_id", None)
    val serve = failure(SparkMips.topKAll(spark, badUsers, items, 2, new BruteForceMM()).count())
    assert(serve.contains(s"user $message"), serve)
    val recopt = failure(SparkMips.topKAllWithRecOpt(spark, badUsers, items, 2, Seq(new LempIndex())))
    assert(recopt.contains(s"user $message"), recopt)
    val item = failure(SparkMips.topKAll(spark, rowsDf("user_id", None),
      rowsDf("item_id", Some(bad)), 2, new BruteForceMM()))
    assert(item.contains(s"item $message"), item)
  }

  test("a null features array fails with a message naming the row") {
    assertRejects(Row(3L, null), "3: features is null")
  }

  test("features of the wrong length fail with a message naming the row") {
    assertRejects(Row(3L, Seq(1.0, 2.0)), "3: 2 features, expected 3")
  }

  test("NaN or infinite features fail with a message naming the row") {
    assertRejects(Row(3L, Seq(1.0, Double.NaN, 3.0)), "3: features hold a NaN or infinite value")
    assertRejects(Row(3L, Seq(Double.NegativeInfinity, 2.0, 3.0)),
      "3: features hold a NaN or infinite value")
  }

  test("a null element inside features fails with a message naming the row") {
    assertRejects(Row(3L, Seq(1.0, null, 3.0)), "3: features hold a null value")
  }

  test("a null id fails with a message naming the kind") {
    assertRejects(Row(null, Seq(1.0, 2.0, 3.0)), "id is null")
  }

  test("both entrypoints reject wrong column types on the driver") {
    def failure(body: => Any): String = intercept[IllegalArgumentException](body).getMessage
    val users = rowsDf("user_id", None)
    for ((bad, message) <- Seq(
        users.withColumn("user_id", col("user_id").cast(IntegerType)) ->
          "column user_id has type int, expected bigint",
        users.withColumn("features", col("features").cast(ArrayType(FloatType))) ->
          "column features has type array<float>, expected array<double>")) {
      val serve = failure(SparkMips.topKAll(spark, bad, itemsDf, 2, new BruteForceMM()))
      assert(serve.contains(message), serve)
      val recopt = failure(SparkMips.topKAllWithRecOpt(spark, bad, itemsDf, 2, Seq(new LempIndex())))
      assert(recopt.contains(message), recopt)
    }
    val item = failure(SparkMips.topKAll(spark, users,
      itemsDf.withColumn("item_id", col("item_id").cast(IntegerType)), 2, new BruteForceMM()))
    assert(item.contains("column item_id has type int, expected bigint"), item)
  }
}

object SparkMipsSpec {
  /** Users passed to `query`/`queryBatch` or to a binding, per strategy
    * name. Global, like the counters below, since the executors run copies
    * of the broadcast strategies. */
  val queried = new java.util.concurrent.ConcurrentHashMap[String, AtomicLong]()
  /** `queryBatch` calls, per strategy name. */
  val batchCalls = new java.util.concurrent.ConcurrentHashMap[String, AtomicLong]()
  /** `bind` calls, per strategy name: for RECDEX, user index builds. */
  val userIndexBuilds = new java.util.concurrent.ConcurrentHashMap[String, AtomicLong]()

  private def add(counter: java.util.Map[String, AtomicLong], name: String, n: Long): Unit =
    counter.computeIfAbsent(name, _ => new AtomicLong()).addAndGet(n)

  final class CountingPrepared(name: String, inner: PreparedMips) extends PreparedMips {
    override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
      add(queried, name, 1)
      inner.query(user, userId, k)
    }
    override def queryBatch(users: Matrix, k: Int): Array[TopKResult] = {
      add(queried, name, users.rows)
      add(batchCalls, name, 1)
      inner.queryBatch(users, k)
    }
    /** Binds `inner`, so its own binding (RECDEX's user index) serves. */
    override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = {
      add(userIndexBuilds, name, 1)
      val serve = inner.bind(block, k)
      rows => { add(queried, name, rows.length); serve(rows) }
    }
  }

  /** Ids (first features) of the users each call of a [[RecordingPrepared]]
    * binding served, in call order. */
  val timedCalls = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Long]]()

  /** A strategy whose binding records the first feature of every user it
    * serves and spins 100 ms per call (RECOPT times busy CPU time, which a
    * sleep would not add to), so RECOPT never picks it and the t-test may
    * stop it after two chunks. */
  final class RecordingPrepared(inner: PreparedMips) extends PreparedMips {
    override def query(user: Array[Double], userId: Int, k: Int): TopKResult =
      inner.query(user, userId, k)
    override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = rows => {
      timedCalls.add(rows.toSeq.map(r => block(r, 0).toLong))
      val end = System.nanoTime() + 100000000L
      while (System.nanoTime() < end) {}
      inner.queryBatch(block.selectRows(rows), k)
    }
  }
}
