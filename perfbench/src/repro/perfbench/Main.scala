package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.harness.Sweep
import repro.recopt.RecOptReport
import repro.sparkmips.SparkMips

/** The repository benchmark: exact batch top-K served through `SparkMips`.
  *
  *   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * One closed-loop client issues one serve call at a time from this process.
  * Spark runs as `local[nproc]` and the users DataFrame has nproc partitions.
  * Every round serves all users once per strategy (MM, LEMP, FEXIPRO-SI,
  * RECDEX through `topKAll`, and RECOPT through `topKAllWithRecOpt`), in a
  * rotating order, until `--seconds` have passed. The action that completes
  * each serve checks every output row against a local brute-force reference
  * on the executors, so every timed serve is also a checked one.
  *
  * `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
  * per-layer metrics of [[Layers]], with spans around each layer call and a
  * Spark listener for task times. The last stdout line is the result JSON;
  * a copy with the run's stamp (and spans, when traced) goes to perfbench/out/.
  */
object Main {
  val FixedStrategies: Seq[String] = Seq("MM", "LEMP", "FEXIPRO-SI", "RECDEX")
  /** RECOPT's candidates, as `jobs/RunTopK` offers them (MM is implicit). */
  val RecOptIndexes: Seq[String] = Seq("LEMP", "RECDEX")
  val RecOpt = "RECOPT"
  val Strategies: Seq[String] = FixedStrategies :+ RecOpt
  /** Input preparations per run; set-up reports their median. */
  val PrepReps = 3

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options ${unknown.mkString(", ")}")
    val wl = Workloads.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; have ${Workloads.All.map(_.name).mkString(", ")}"))
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be >= 1")
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(wl, need("seed").toLong, seconds, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args =
      try parseArgs(argv)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(s"perfbench: ${e.getMessage}")
          System.err.println("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
          System.exit(2); return
      }
    val code =
      try { run(args); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** One timed serve: the serve call plus the checking action. */
  final case class Pass(strategy: String, seconds: Double, rows: Long, wrongUsers: Int,
                        report: Option[RecOptReport], spanId: Int)

  private def run(args: Args): Unit = {
    val wl = args.workload
    val processStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val nproc = Runtime.getRuntime.availableProcessors()

    val spark = SparkSession.builder
      .appName(s"perfbench-${wl.name}")
      .master(s"local[$nproc]")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.warehouse.dir", Paths.get("perfbench/.work/warehouse").toAbsolutePath.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sparkReadyS = (System.currentTimeMillis() - processStartMs) / 1e3

    // --- inputs: generate, build DataFrames, cache; repeated for a steady set-up figure ---
    var users: repro.core.Matrix = null
    var items: repro.core.Matrix = null
    var usersDf: DataFrame = null
    var itemsDf: DataFrame = null
    val prepTimes = (1 to PrepReps).map { _ =>
      if (usersDf != null) { usersDf.unpersist(true); itemsDf.unpersist(true) }
      System.gc()
      timed {
        val (u, i) = wl.generate(args.seed)
        users = u; items = i
        usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = nproc).cache()
        itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1).cache()
        usersDf.count(); itemsDf.count()
      }._2
    }

    // --- reference (untimed, excluded from set-up): single-threaded local MM ---
    val (ref, localAllS) = timed(Reference.compute(users, items, wl.k))
    val badReference = Reference.selfCheck(ref, users, items, probes = 16)
    val bRef = spark.sparkContext.broadcast(ref)

    val tracer = if (args.trace) Some(new Tracer(spark.sparkContext)) else None
    var attempted = 0L
    var failed = 0L + badReference.size

    def serve(strategy: String): Pass = {
      System.gc()
      def call(): (CheckOutcome, Option[RecOptReport]) = strategy match {
        case RecOpt =>
          val (df, rep) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, wl.k,
            RecOptIndexes.map(Sweep.solverByName))
          (Check.run(df, bRef), Some(rep))
        case Layers.Noop =>
          (Check.run(SparkMips.topKAll(spark, usersDf, itemsDf, wl.k, new NoopMips), bRef), None)
        case name =>
          (Check.run(SparkMips.topKAll(spark, usersDf, itemsDf, wl.k,
            Sweep.solverByName(name.stripSuffix(Layers.UntracedSuffix))), bRef), None)
      }
      val traceThis = tracer.isDefined && !strategy.endsWith(Layers.UntracedSuffix)
      val ((outcome, rep), secs, spanId) =
        if (traceThis) {
          val t = tracer.get
          val ((r, s), sp) = t.serveSpan(s"serve.$strategy")(timed(call()))
          (r, s, sp.id)
        } else {
          val (r, s) = timed(call())
          (r, s, 0)
        }
      if (strategy != Layers.Noop) {
        attempted += ref.users
        failed += outcome.wrongUsers
      }
      Pass(strategy, secs, outcome.rows, outcome.wrongUsers, rep, spanId)
    }

    // --- warm-up: one checked serve of every strategy (first serves run up to 3x slower) ---
    val (warmup, warmupS) = timed(Strategies.map(serve))
    val setupS = sparkReadyS + median(prepTimes) + warmupS

    // --- traced run: local per-layer calls first, inside the measured time ---
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    val layerMetrics = tracer.map { t =>
      val lr = Layers.local(t, users, items, wl.k, nproc, ref)
      attempted += lr.attempted
      failed += lr.failed
      lr
    }

    // --- measured rounds, closed loop, rotating order ---
    val roundStrategies =
      if (args.trace) Strategies ++ Seq(Layers.Noop, "MM" + Layers.UntracedSuffix) else Strategies
    // A round starts only if it is expected to end by the deadline.
    val passes = mutable.ArrayBuffer.empty[Pass]
    var round = 0
    var lastRoundNs = 0L
    while (round == 0 || System.nanoTime() + lastRoundNs <= deadline) {
      val t0 = System.nanoTime()
      val off = round % roundStrategies.size
      (roundStrategies.drop(off) ++ roundStrategies.take(off)).foreach(s => passes += serve(s))
      lastRoundNs = System.nanoTime() - t0
      round += 1
    }

    val secsOf: Map[String, Seq[Double]] =
      passes.groupBy(_.strategy).view.mapValues(_.map(_.seconds).toSeq).toMap
    val med: Map[String, Double] = secsOf.view.mapValues(median).toMap
    val candidates = "MM" +: RecOptIndexes
    val oracle = candidates.minBy(s => (med(s), s))
    val reports = passes.flatMap(_.report)
    val chosen = reports.groupBy(_.chosen).maxBy { case (c, rs) => (rs.size, c) }._1

    val e2e: Seq[(String, Double, String)] =
      Seq(("setup_s", setupS, "s")) ++
        Strategies.map(s => (s"users_per_s.$s", wl.users / med(s), "users/s")) ++
        Seq(("recopt_regret", med(RecOpt) / med(oracle), "ratio"))

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) e2e
      else Layers.report(layerMetrics.get, tracer.get, passes.toSeq, med, localAllS, nproc,
        wl, oracle, chosen, itemsDf)

    val correct = failed == 0
    val stamp: Seq[(String, Any)] = Seq(
      "workload" -> wl.name, "seed" -> args.seed, "seconds" -> args.seconds,
      "trace" -> (if (args.trace) 1 else 0),
      "nproc" -> nproc, "spark_master" -> spark.sparkContext.master,
      "users_partitions" -> usersDf.rdd.getNumPartitions,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "spark" -> org.apache.spark.SPARK_VERSION,
      "driver_heap_bytes" -> Runtime.getRuntime.maxMemory(),
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "none"),
      "src_digest" -> sys.props.getOrElse("perfbench.srcDigest", "none"),
      "shape" -> Seq("users" -> wl.users, "items" -> wl.items, "f" -> wl.f, "k" -> wl.k),
      "setup_parts_s" -> Seq("spark_ready" -> sparkReadyS, "inputs_median" -> median(prepTimes),
        "warmup" -> warmupS, "reference_untimed" -> localAllS),
      "rounds" -> round,
      "passes_per_strategy" -> secsOf.toSeq.sortBy(_._1).map { case (s, xs) => s -> xs.size },
      "recopt_chosen" -> chosen, "oracle" -> oracle,
      "wrong_users_frac" -> failed.toDouble / math.max(1L, attempted),
      "reference_self_check_failures" -> badReference.size,
    )

    // --- readable report, then the result line last ---
    println(s"# perfbench ${Json(stamp)}")
    warmup.foreach(p => println(f"# warm-up ${p.strategy}%-12s ${p.seconds}%8.3f s"))
    secsOf.toSeq.sortBy(_._1).foreach { case (s, xs) =>
      println(f"# serve   $s%-14s median ${median(xs)}%8.4f s over ${xs.size}%d passes " +
        xs.map(x => f"$x%.3f").mkString("[", " ", "]"))
    }
    reports.headOption.foreach { r =>
      println(s"# recopt chose ${r.chosen} sample=${r.sampleSize}/${r.totalUsers} " +
        r.estimates.map(e => f"${e.name}=${e.estTotalNanos / 1e9}%.3fs-est").mkString("[", " ", "]"))
    }
    println(f"# wrong_users_frac ${failed.toDouble / math.max(1L, attempted)}%.6f " +
      s"($failed of $attempted user results)")
    metrics.foreach { case (n, v, u) => println(f"# metric $n%-40s $v%16.6f $u") }

    val result: Seq[(String, Any)] = Seq(
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (n, v, u) => n -> Seq("value" -> v, "unit" -> u) },
    )
    val spans = tracer.map(_.allSpans).getOrElse(Nil)
    val out = Paths.get("perfbench/out", s"${wl.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    Files.createDirectories(out.getParent)
    Files.write(out, Json((("stamp" -> stamp) +: result) ++ Seq(
      "passes" -> passes.toSeq.map(p => Seq("strategy" -> p.strategy, "seconds" -> p.seconds,
        "rows" -> p.rows, "wrong_users" -> p.wrongUsers)),
      "spans" -> spans.map(s => Seq("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
    )).getBytes(StandardCharsets.UTF_8))

    spark.stop()
    println(Json(result))
  }
}
