package repro.sparkmips

import org.apache.spark.sql.{DataFrame, InternalRows, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel
import repro.core.{Matrix, MipsSolver, TopKResult}
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
  * once and broadcasts them, one Spark job decodes each partition once and
  * runs RECOPT's per-block function on it ([[RecOpt.onBlock]]: it samples
  * the partition's share of the users, RECDEX builds its user index over the
  * partition, every candidate is timed in chunks on the sample), the driver
  * extrapolates and decides, and each kept block serves itself with the
  * winner ([[repro.recopt.TimedBlock.serve]]), as local `RecOpt.serveAll`
  * serves its one block.
  *
  * Users and items are read, and results written, as Spark's internal rows
  * ([[org.apache.spark.sql.InternalRows]]), never as `Row`s.
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
    * features must be non-null, null-free, finite and as long as the first
    * row's. */
  def collectMatrix(df: DataFrame, idCol: String): (Array[Long], Matrix) = {
    val rows = InternalRows.collect(embeddings(df, idCol))
    require(rows.nonEmpty, "items DataFrame is empty: no items to serve")
    decode(rows.iterator, "item", -1)
  }

  /** Distributed exact top-K for every user with a fixed strategy.
    *
    * Output: one row per (user, rank), rank 1-based, ordered within a user
    * by (score desc, item_id asc) — the repo-wide deterministic tie-break.
    *
    * k < 1 and column types other than `user_id BIGINT`, `features
    * ARRAY<DOUBLE>` fail on the driver. The users are not counted, since that
    * costs a two-stage aggregate with a shuffle (two Spark jobs under
    * adaptive execution, about 0.1 s for 12,000 users on 4 cores, half an MM
    * serve there), so an empty users DataFrame yields no rows. A null user
    * id, or features that are null, hold a null or non-finite value or are
    * not as long as the items', fail the user's task with a message naming
    * the user.
    */
  def topKAll(spark: SparkSession, users: DataFrame, items: DataFrame, k: Int,
              solver: MipsSolver): DataFrame = {
    requireK(k)
    val (itemIds, itemMatrix) = collectMatrix(items, "item_id")
    // prepare once on the driver; the prepared index is broadcast so every
    // partition pays query cost only (index build cost C_I is paid once)
    val bPrepared = spark.sparkContext.broadcast(solver.prepare(itemMatrix))
    val bItemIds = spark.sparkContext.broadcast(itemIds)
    val f = itemMatrix.cols
    val out = InternalRows.rdd(embeddings(users, "user_id")).mapPartitions { it =>
      val (ids, block) = decode(it, "user", f)
      encode(ids, bPrepared.value.queryBatch(block, k), bItemIds.value)
    }
    InternalRows.toDataFrame(spark, out, OutputSchema)
  }

  /** Distributed serving with RECOPT choosing the strategy.
    *
    * Decision phase, eager, two Spark jobs: collect the items; build MM and
    * every candidate once on the driver (C_I) and broadcast them; then one
    * pass decodes each user partition p of P and runs [[RecOpt.onBlock]] on
    * it as part p of P: it samples the partition's share of the users (one
    * partition samples what local `serveAll` samples), binds every candidate
    * to the whole block (RECDEX builds its user index over it, a per-block
    * cost added to its build) and times it in chunks on the sample. Each
    * timed block is kept in memory with every candidate's sampled results
    * and binding. The pass returns each block's row count with its costs;
    * the driver sums the counts to |U| (no job counts the users first),
    * extrapolates and decides. Serve phase, lazy: the returned DataFrame
    * maps over the same blocks and encodes each block's
    * [[repro.recopt.TimedBlock.serve]] with the winner, which drops the
    * other candidates' bindings and reuses the winner's sampled results and
    * binding, so RECDEX never clusters a block twice. The report's
    * `totalNanos` covers the decision phase.
    *
    * The kept blocks and the candidates' broadcast live as long as the
    * returned DataFrame and are released by Spark's `ContextCleaner`. A
    * block Spark drops is recomputed from the users, which times its sampled
    * rows again, so the broadcast is never destroyed here.
    *
    * Fails on the driver if k < 1 or the column types are wrong, and after
    * the pass if the users DataFrame is empty; bad user rows as in [[topKAll]].
    */
  def topKAllWithRecOpt(spark: SparkSession, users: DataFrame, items: DataFrame,
                        k: Int, indexSolvers: Seq[MipsSolver],
                        cfg: RecOptConfig = RecOptConfig()): (DataFrame, RecOptReport) = {
    val t0 = System.nanoTime()
    requireK(k)
    val userRows = InternalRows.rdd(embeddings(users, "user_id"))
    val (itemIds, itemMatrix) = collectMatrix(items, "item_id")
    val f = itemMatrix.cols
    val candidates = RecOpt.buildCandidates(itemMatrix, indexSolvers)

    // --- one pass: decode every partition once, time the candidates on its sample ---
    val bCandidates = spark.sparkContext.broadcast(candidates.map { case (name, prep, _) => name -> prep })
    val partitions = userRows.getNumPartitions
    val blocks = userRows.mapPartitionsWithIndex { (p, it) =>
      val (ids, block) = decode(it, "user", f)
      Iterator.single(ids -> RecOpt.onBlock(block, p, partitions, k, cfg, bCandidates.value))
    }.persist(StorageLevel.MEMORY_ONLY)
    val passed = blocks.map { case (_, b) => (b.rows.toLong, b.costs) }.collect()
    val totalUsers = passed.map(_._1).sum
    require(totalUsers > 0, "users DataFrame is empty: nothing to serve")
    val report = RecOpt.report(candidates.map { case (name, _, build) => name -> build },
      passed.toSeq.flatMap(_._2), totalUsers, t0)

    // --- serve the same blocks with the winner ---
    val chosen = report.chosen
    val bItemIds = spark.sparkContext.broadcast(itemIds)
    val out = blocks.mapPartitions(_.flatMap { case (ids, b) =>
      encode(ids, b.serve(chosen), bItemIds.value)
    })
    (InternalRows.toDataFrame(spark, out, OutputSchema), report)
  }

  private def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")

  /** The `(idCol, features)` columns of `df`, checked on the driver to be
    * BIGINT and ARRAY<DOUBLE>, the layout [[decode]] reads. */
  private def embeddings(df: DataFrame, idCol: String): DataFrame = {
    val view = df.select(idCol, "features")
    def check(field: StructField, ok: Boolean, expected: DataType): Unit =
      require(ok, s"column ${field.name} has type ${field.dataType.catalogString}, " +
        s"expected ${expected.catalogString}")
    val Array(id, features) = view.schema.fields
    check(id, id.dataType == LongType, LongType)
    check(features, PartialFunction.cond(features.dataType) { case ArrayType(DoubleType, _) => true },
      ArrayType(DoubleType))
    view
  }

  /** Decode [[embeddings]] rows into their ids and one block of dimension
    * `f`, or of the first row's when `f < 0`. Fails with a message naming the
    * `kind` and the row's id unless the id is non-null and the features are
    * non-null, `f` long, null-free and finite. */
  private def decode(rows: Iterator[InternalRow], kind: String, f: Int): (Array[Long], Matrix) = {
    val ids = Array.newBuilder[Long]
    val data = Array.newBuilder[Double]
    var dim = f
    rows.foreach { row =>
      require(!row.isNullAt(0), s"$kind id is null")
      val id = row.getLong(0)
      require(!row.isNullAt(1), s"$kind $id: features is null")
      val arr = row.getArray(1)
      if (dim < 0) dim = arr.numElements()
      require(arr.numElements() == dim, s"$kind $id: ${arr.numElements()} features, expected $dim")
      // a null slot reads as 0.0, so nulls are looked for in `arr`, not `v`
      val v = arr.toDoubleArray()
      var hasNull = false
      var finite = true
      var j = 0
      while (j < dim) {
        hasNull |= arr.isNullAt(j)
        finite &= java.lang.Double.isFinite(v(j))
        j += 1
      }
      require(!hasNull, s"$kind $id: features hold a null value")
      require(finite, s"$kind $id: features hold a NaN or infinite value")
      ids += id
      data.addAll(v)
    }
    val idArr = ids.result()
    (idArr, new Matrix(idArr.length, math.max(dim, 0), data.result()))
  }

  /** `(user_id, item_id, rank, score)` rows of one block's results, all
    * written by one reused `UnsafeRowWriter`. */
  private def encode(userIds: Array[Long], results: Array[TopKResult],
                     itemIds: Array[Long]): Iterator[InternalRow] = {
    val writer = new UnsafeRowWriter(OutputSchema.length)
    Iterator.range(0, results.length).flatMap { r =>
      val res = results(r)
      Iterator.range(0, res.size).map { rank =>
        writer.write(0, userIds(r))
        writer.write(1, itemIds(res.ids(rank)))
        writer.write(2, rank + 1)
        writer.write(3, res.scores(rank))
        writer.getRow()
      }
    }
  }
}
