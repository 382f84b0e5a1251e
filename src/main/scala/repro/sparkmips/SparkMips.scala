package repro.sparkmips

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.{Matrix, MipsSolver, PreparedMips}
import repro.recopt.{RecOpt, RecOptConfig, RecOptReport}

/** Batch MIPS serving on Spark — the paper's kernels as a per-partition
  * vectorized operator.
  *
  * The contribution being reproduced is a single-machine, hardware-efficient
  * kernel (blocked GEMM / RECDEX / index traversal), so the Spark layering
  * is: user embedding blocks are partitions of a DataFrame
  * `(user_id BIGINT, features ARRAY<DOUBLE>)`; the item matrix is small and
  * is broadcast together with a prepared index; `mapPartitions` then runs
  * the chosen exact solver over each user block and emits
  * `(user_id, item_id, rank, score)` rows. This keeps the vectorized batch
  * kernels intact inside each partition while Spark supplies inter-block
  * parallelism — exactly the batch-serving setting of §2.2.
  *
  * RECOPT decides where the users live: the driver builds every candidate
  * once and broadcasts them, one Spark job times them on each partition's
  * share of a user sample, the driver extrapolates and decides, and the
  * distributed pass serves with the winner's already-built index.
  */
object SparkMips {

  val OutputSchema: StructType = StructType(Seq(
    StructField("user_id", LongType, nullable = false),
    StructField("item_id", LongType, nullable = false),
    StructField("rank", IntegerType, nullable = false),
    StructField("score", DoubleType, nullable = false),
  ))

  /** Matrix + row ids → DataFrame (id BIGINT, features ARRAY<DOUBLE>). */
  def toDf(spark: SparkSession, m: Matrix, idCol: String,
           numPartitions: Int = 0): DataFrame = {
    val rows = (0 until m.rows).map(r => Row(r.toLong, m.row(r).toSeq))
    val schema = StructType(Seq(
      StructField(idCol, LongType, nullable = false),
      StructField("features", ArrayType(DoubleType, containsNull = false), nullable = false)))
    val rdd0 = spark.sparkContext.parallelize(rows,
      if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism)
    spark.createDataFrame(rdd0, schema)
  }

  /** Collect an embedding DataFrame to the driver as (ids, Matrix). Use on
    * the item side only — items are the broadcast-small side. Every row's
    * features must be non-null, finite and as long as the first row's. */
  def collectMatrix(df: DataFrame, idCol: String): (Array[Long], Matrix) = {
    val rows = df.select(idCol, "features").collect()
    require(rows.nonEmpty, "empty embedding DataFrame")
    val f = features(rows.head, "item", -1).length
    (rows.map(_.getLong(0)), Matrix.fromRows(rows.map(features(_, "item", f)).toIndexedSeq))
  }

  /** Distributed exact top-K for every user with a fixed strategy.
    *
    * Output: one row per (user, rank), rank 1-based, ordered within a user
    * by (score desc, item_id asc) — the repo-wide deterministic tie-break.
    *
    * k < 1 fails on the driver. The users are not counted, since that is one
    * more Spark job per call (about 0.1 s for 8,000 users on 4 cores, over a
    * quarter of an MM serve there), so an empty users DataFrame yields no rows.
    * A user whose features are null, non-finite or not as long as the items'
    * fails its task with a message naming the user.
    */
  def topKAll(spark: SparkSession, users: DataFrame, items: DataFrame, k: Int,
              solver: MipsSolver): DataFrame = {
    requireK(k)
    val (itemIds, itemMatrix) = collectMatrix(items, "item_id")
    // prepare once on the driver; the prepared index is broadcast so every
    // partition pays query cost only (index build cost C_I is paid once)
    serve(spark, users, itemIds, itemMatrix.cols, solver.prepare(itemMatrix), k)
  }

  /** Distributed serving with RECOPT choosing the strategy.
    *
    * Decision phase, eager: collect the items once; build MM and every
    * candidate once on the driver (C_I); broadcast them and run one job over
    * `cfg.sampleFraction` of the users (at least the 4x-L2 floor, seeded by
    * `cfg.seed`) in which every partition times every candidate on its share
    * of the sample ([[RecOpt.timeBlock]]); extrapolate and decide on the
    * driver. Serve phase, lazy: the returned DataFrame runs the winner's
    * already-built index through the same per-partition operator as
    * [[topKAll]]. The sample's results are not reused: the serve recomputes
    * the sampled users. The report's `totalNanos` covers the decision phase.
    *
    * Fails on the driver if k < 1, the users DataFrame is empty, or it holds
    * more than `Int.MaxValue` users; bad user features fail as in [[topKAll]].
    */
  def topKAllWithRecOpt(spark: SparkSession, users: DataFrame, items: DataFrame,
                        k: Int, indexSolvers: Seq[MipsSolver],
                        cfg: RecOptConfig = RecOptConfig()): (DataFrame, RecOptReport) = {
    val t0 = System.nanoTime()
    requireK(k)
    val totalUsers = countUsers(users)
    val (itemIds, itemMatrix) = collectMatrix(items, "item_id")
    val f = itemMatrix.cols
    val candidates = RecOpt.buildCandidates(itemMatrix, indexSolvers)
    val prepared = candidates.map { case (name, prep, _) => name -> prep }

    // --- every partition times every candidate on its share of the sample ---
    val bCandidates = spark.sparkContext.broadcast(prepared)
    val time = (rows: Array[Row]) =>
      RecOpt.timeBlock(decode(rows, f), k, bCandidates.value, cfg).map(t => (t.name, t.nanos, t.users))
    val userRows = users.select("user_id", "features")
    val fraction = RecOpt.sampleSize(totalUsers, f, cfg).toDouble / totalUsers
    val sampled = userRows.sample(withReplacement = false, fraction, cfg.seed)
      .rdd.mapPartitions { it =>
        val rows = it.toArray
        if (rows.isEmpty) Iterator.empty else time(rows).iterator
      }.collect()
    // an empty sample (possible when the expected size is a few users) is
    // replaced by the first user, timed on the driver
    val timings = if (sampled.nonEmpty) sampled.toSeq else time(Array(userRows.head()))
    bCandidates.destroy()
    val report = RecOpt.report(candidates.map { case (name, _, build) => name -> build },
      timings, totalUsers, t0)

    // --- serve with the winner's already-built index ---
    (serve(spark, users, itemIds, f, prepared.find(_._1 == report.chosen).get._2, k), report)
  }

  private def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")

  /** The population RECOPT extrapolates to, checked on the driver. */
  private def countUsers(users: DataFrame): Int = {
    val n = users.count()
    require(n > 0, "users DataFrame is empty: nothing to serve")
    require(n <= Int.MaxValue, s"$n users exceed ${Int.MaxValue}, the most one call can serve")
    n.toInt
  }

  /** The features of an `(id, features)` row, failing with a message that
    * names the `kind` and id unless they are non-null, finite and — when
    * `f >= 0` — exactly `f` long. */
  private def features(row: Row, kind: String, f: Int): Array[Double] = {
    require(!row.isNullAt(1), s"$kind ${row.getLong(0)}: features is null")
    val v = row.getSeq[Double](1).toArray
    require(f < 0 || v.length == f,
      s"$kind ${row.getLong(0)}: ${v.length} features, expected $f")
    require(v.forall(java.lang.Double.isFinite),
      s"$kind ${row.getLong(0)}: features hold a NaN or infinite value")
    v
  }

  /** Decode one partition's `(user_id, features)` rows into a user block of
    * the items' dimension `f`. */
  private def decode(rows: Array[Row], f: Int): Matrix =
    Matrix.fromRows(rows.map(features(_, "user", f)).toIndexedSeq)

  /** The per-partition operator of every serve: broadcast the prepared
    * strategy, then each partition decodes its users into one block, runs
    * `queryBatch`, and encodes (user_id, item_id, rank, score) rows. */
  private def serve(spark: SparkSession, users: DataFrame, itemIds: Array[Long], f: Int,
                    prepared: PreparedMips, k: Int): DataFrame = {
    val bPrepared = spark.sparkContext.broadcast(prepared)
    val bItemIds = spark.sparkContext.broadcast(itemIds)
    val out = users.select("user_id", "features").rdd.mapPartitions { it =>
      val batch = it.toArray
      if (batch.isEmpty) Iterator.empty
      else {
        val ids = batch.map(_.getLong(0))
        val results = bPrepared.value.queryBatch(decode(batch, f), k)
        val iIds = bItemIds.value
        results.iterator.zipWithIndex.flatMap { case (res, r) =>
          res.ids.iterator.zipWithIndex.map { case (item, rank) =>
            Row(ids(r), iIds(item), rank + 1, res.scores(rank))
          }
        }
      }
    }
    spark.createDataFrame(out, OutputSchema)
  }
}
