package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.cluster.KMeans
import repro.core.{BruteForceMM, Gemm, Matrix, TopK}
import repro.harness.Sweep
import repro.linalg.Svd
import repro.recdex.{Recdex, RecdexPrepared}
import repro.recopt.{RecOpt, RecOptConfig}
import repro.sparkmips.SparkMips

/** The traced run's per-layer metrics.
  *
  * Local layer calls are single-threaded, on one partition's share of the
  * users (the first users/nproc rows) with the workload's items and K, each
  * inside a span and timed as the median of up to [[Reps]] calls. The Spark
  * figures come from the traced serves of the measured rounds.
  */
object Layers {
  /** Serves with the no-op kernel: the Spark shell alone. */
  val Noop = "NOOP"
  /** Suffix of MM serves run without spans or listener, for the overhead. */
  val UntracedSuffix = "-untraced"
  val Reps = 3
  /** A layer call is not repeated once its calls so far took this long. */
  val RepBudgetS = 1.5
  /** Users per block in the GEMM and top-K probes, as `BruteForceMM` uses. */
  val GemmBlock = 512

  type Metric = (String, Double, String)

  final case class Local(metrics: Seq[Metric], attempted: Long, failed: Long)

  def local(t: Tracer, users: Matrix, items: Matrix, k: Int, nproc: Int,
            ref: Reference): Local = {
    val share = math.max(1, users.rows / nproc)
    val part = users.sliceRows(0, share)
    val nI = items.rows.toDouble
    var attempted = 0L
    var failed = 0L
    def check(res: Array[repro.core.TopKResult]): Unit = {
      attempted += res.length; failed += Check.local(res, ref)
    }
    def rep[A](name: String)(body: => A): (A, Double) = {
      val runs = scala.collection.mutable.ArrayBuffer.empty[(A, Span)]
      while (runs.size < Reps && runs.map(_._2.seconds).sum < RepBudgetS) runs += t.span(name)(body)
      (runs.last._1, Main.median(runs.map(_._2.seconds).toSeq))
    }

    // core: GEMM and top-K on one block, MM on the partition share
    val block = part.sliceRows(0, math.min(GemmBlock, share))
    val (scores, gemmS) = rep("core.gemm")(Gemm.abt(block, items))
    val (_, topkS) = rep("core.topk") {
      var r = 0
      while (r < scores.rows) { TopK.ofMatrixRow(scores, r, k); r += 1 }
    }
    val mmPrepared = new BruteForceMM().prepare(items)
    val (mmRes, mmQueryS) = rep("core.mm.query")(mmPrepared.queryBatch(part, k))
    check(mmRes)

    // lemp
    val lemp = Sweep.solverByName("LEMP")
    val (lempPrepared, lempBuildS) = rep("lemp.build")(lemp.prepare(items))
    val (lempRes, lempQueryS) = rep("lemp.query")(lempPrepared.queryBatch(part, k))
    check(lempRes)

    // fexipro, with its SVD on its own
    val (_, svdS) = rep("linalg.svd")(Svd.ofGram(items))
    val fex = Sweep.solverByName("FEXIPRO-SI")
    val (fexPrepared, fexBuildS) = rep("fexipro.build")(fex.prepare(items))
    val (fexRes, fexQueryS) = rep("fexipro.query")(fexPrepared.queryBatch(part, k))
    check(fexRes)

    // recdex, with its k-means on its own
    val recdex = Sweep.solverByName("RECDEX").asInstanceOf[Recdex]
    val (recdexPrepared, recdexBuildS) = rep("recdex.build")(recdex.prepare(items))
    val rp = recdexPrepared.asInstanceOf[RecdexPrepared]
    val (_, kmeansS) = rep("cluster.kmeans")(
      KMeans.fit(part, recdex.numClusters, recdex.kmeansSeed, recdex.kmeansMaxIter))
    val (userIndex, userIndexS) = rep("recdex.user_index")(rp.buildUserIndexImpl(part))
    val (walkRes, walkS) = rep("recdex.walk")(userIndex.queryAll(k))
    check(walkRes)
    val ((_, wbar), _) = t.span("recdex.count")(userIndex.queryAllCounting(k, true))
    val (_, noHeadS) = rep("recdex.lesion.no_head")(userIndex.queryAllLesion(k, false))
    val (_, headS) = rep("recdex.lesion.head")(userIndex.queryAllLesion(k, true))
    val nsPerVisited = walkS * 1e9 / (wbar * share)
    val mmNsPerItem = mmQueryS * 1e9 / (share * nI)

    // recopt: the driver-side estimate over the whole population, as the
    // Spark path runs it (sample at the default config's floor)
    val cfg = RecOptConfig()
    val sample = users.selectRows(RecOpt.sampleIndices(users.rows, users.cols, cfg))
    val (_, estimateS) = rep("recopt.estimate")(
      RecOpt.estimate(sample, items, k, Main.RecOptIndexes.map(Sweep.solverByName), users.rows, cfg))

    Local(Seq(
      ("core.gemm.gflops", 2.0 * block.rows * nI * items.cols / gemmS / 1e9, "GFLOP/s"),
      ("core.topk.ns_per_score", topkS * 1e9 / (block.rows * nI), "ns"),
      ("core.mm.query_s", mmQueryS, "s"),
      ("lemp.build_s", lempBuildS, "s"),
      ("lemp.query_s", lempQueryS, "s"),
      ("linalg.svd_s", svdS, "s"),
      ("fexipro.build_s", fexBuildS, "s"),
      ("fexipro.query_s", fexQueryS, "s"),
      ("recdex.build_s", recdexBuildS, "s"),
      ("cluster.kmeans_s", kmeansS, "s"),
      ("recdex.user_index_s", userIndexS, "s"),
      ("recdex.walk_s", walkS, "s"),
      ("recdex.wbar", wbar, "items"),
      ("recdex.visited_frac", wbar / nI, "ratio"),
      ("recdex.ns_per_visited", nsPerVisited, "ns"),
      ("recdex.cost_per_item_vs_mm", nsPerVisited / mmNsPerItem, "ratio"),
      ("recdex.head_speedup", noHeadS / headS, "ratio"),
      ("recopt.estimate_s", estimateS, "s"),
    ), attempted, failed)
  }

  /** Per-layer metrics of a traced run, in `BENCHMARK.json` order. */
  def report(local: Local, t: Tracer, passes: Seq[Main.Pass], med: Map[String, Double],
             localAllS: Double, nproc: Int, wl: Workload, oracle: String, chosen: String,
             itemsDf: DataFrame): Seq[Metric] = {
    val collectS = Main.median((1 to Reps).map(_ =>
      t.span("sparkmips.collect_items")(SparkMips.collectMatrix(itemsDf, "item_id"))._2.seconds))
    val (itemIds, itemMatrix) = SparkMips.collectMatrix(itemsDf, "item_id")
    val broadcastBytes = Main.FixedStrategies.map { s =>
      (s"sparkmips.broadcast_bytes_computed.$s",
        serializedBytes(Sweep.solverByName(s).prepare(itemMatrix), itemIds).toDouble, "bytes")
    }

    val reports = passes.flatMap(_.report)
    val predError = Main.median(reports.map { r =>
      val est = r.estimates.find(_.name == r.chosen).get.estTotalNanos / 1e9
      math.abs(est - med(r.chosen)) / med(r.chosen)
    })
    val sampleUsers = Main.median(reports.map(_.sampleSize.toDouble))

    // per serve: tasks of its last stage (the pass over the users), and the
    // serve time not covered by any of its stages
    def perServe(s: String)(f: Main.Pass => Double): Double =
      Main.median(passes.filter(p => p.strategy == s && p.spanId > 0).map(f))
    def serveTasks(p: Main.Pass): Seq[Double] = {
      val stages = t.tasks.stagesOf(p.spanId)
      t.tasks.tasksOf(stages.map(_.stageId).max).map(_.runMs / 1e3)
    }
    val sparkMetrics = Main.Strategies.flatMap { s =>
      Seq(
        (s"sparkmips.shell_frac.$s", med(Noop) / med(s), "ratio"),
        (s"sparkmips.task_s.median.$s", perServe(s)(p => Main.median(serveTasks(p))), "s"),
        (s"sparkmips.task_s.max.$s", perServe(s)(p => serveTasks(p).max), "s"),
        (s"sparkmips.driver_s.$s",
          perServe(s)(p => p.seconds - t.tasks.stagesOf(p.spanId).map(st => (st.endMs - st.startMs) / 1e3).sum),
          "s"),
      )
    }

    local.metrics ++ Seq(
      ("core.mm.local_all_s", localAllS, "s"),
      ("recopt.sample_users", sampleUsers, "users"),
      ("recopt.sample_frac", sampleUsers / wl.users, "ratio"),
      ("recopt.pred_error", predError, "ratio"),
      ("recopt.correct", if (chosen == oracle) 1.0 else 0.0, "count"),
      ("sparkmips.collect_items_s", collectS, "s"),
    ) ++ broadcastBytes ++ Seq(
      ("sparkmips.shell_s", med(Noop), "s"),
      ("sparkmips.scaling_eff.MM", localAllS / (med("MM") * nproc), "ratio"),
    ) ++ sparkMetrics ++ Seq(
      ("trace.overhead_frac", med("MM") / med("MM" + UntracedSuffix) - 1.0, "ratio"),
    )
  }

  /** Java-serialized size of what `topKAll` broadcasts: the prepared
    * strategy and the item ids. */
  private def serializedBytes(objs: AnyRef*): Long = {
    var n = 0L
    val counting = new java.io.OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    objs.foreach { o =>
      val out = new java.io.ObjectOutputStream(counting)
      out.writeObject(o); out.close()
    }
    n
  }
}
