package repro.recopt

import repro.core.{BruteForceMM, Matrix, MipsSolver, PreparedMips, TopKResult}
import repro.stats.TTest

/** Configuration for the RECOPT online optimizer (§4).
  *
  * @param sampleFraction fraction of users to time each strategy on (paper
  *                       uses 0.5–1%)
  * @param l2CacheBytes   assumed L2 cache size; every candidate's sample is at
  *                       least the users that fill 4x this (§4.1's floor)
  * @param seed           PRNG seed for the user sample
  */
final case class RecOptConfig(
    sampleFraction: Double = 0.01,
    l2CacheBytes: Long = 1L << 20,
    seed: Long = 7,
)

/** Per-strategy runtime estimate produced from the sample. `buildNanos` is
  * the item-side build plus binding it to every block. */
final case class StrategyEstimate(
    name: String,
    buildNanos: Long,
    perUserNanos: Double,
    usersTimed: Long,
    estTotalNanos: Double,
)

/** One strategy's work on one block: `fixedNanos` bound it to the block
  * (RECDEX's user index build; about 0 for the others), and `nanos` is its
  * busy time on the first `users` sampled rows, both on [[RecOpt.timeBlock]]'s
  * clock. `results(i)` is sampled row i's top-K, or null where the t-test
  * stopped before it. `serve` is the binding, which answers block rows. */
private[recopt] final class BlockTiming(val name: String, val fixedNanos: Long, val nanos: Long,
                                        val users: Int, val results: Array[TopKResult],
                                        val serve: Array[Int] => Array[TopKResult]) {
  /** What [[RecOpt.report]] sums: `(name, fixedNanos, nanos, users)`. */
  def cost: (String, Long, Long, Int) = (name, fixedNanos, nanos, users)
}

/** One block of users after [[RecOpt.onBlock]] timed the candidates on it:
  * its row count, its sampled rows and each candidate's timing and binding. */
final class TimedBlock private[recopt] (val rows: Int, val sampled: Array[Int],
                                        private var timings: Seq[BlockTiming]) {
  /** Each candidate's cost; none for an empty block, the winner's after [[serve]]. */
  def costs: Seq[(String, Long, Long, Int)] = timings.map(_.cost)

  /** Every row's top-K, result i for row i, from the `chosen` candidate:
    * drops the others' bindings (RECDEX's user index with them), keeps the
    * winner's sampled results and serves the other rows once, ascending,
    * with its binding. An empty block serves no rows; serving again, also
    * from another thread at once, returns the same results. */
  def serve(chosen: String): Array[TopKResult] = {
    timings = timings.filter(_.name == chosen)
    require(rows == 0 || timings.nonEmpty, s"no candidate $chosen was timed on this block")
    val out = new Array[TopKResult](rows)
    timings.foreach { winner =>
      sampled.indices.foreach(i => out(sampled(i)) = winner.results(i))
      val rest = out.indices.filter(out(_) == null).toArray
      if (rest.nonEmpty) winner.serve(rest).zip(rest).foreach { case (res, r) => out(r) = res }
    }
    out
  }
}

/** What RECOPT decided and what it cost to decide. */
final case class RecOptReport(
    chosen: String,
    estimates: Seq[StrategyEstimate],
    sampleSize: Long,
    totalUsers: Long,
    /** optimization work that did NOT produce reused results: the losing
      * strategies' builds and sampled busy time. On Spark the busy time is
      * summed over partitions timed concurrently. */
    wastedNanos: Long,
    /** wall-clock of the call: local `serveAll` includes serving every user;
      * Spark `topKAllWithRecOpt` covers only the decision phase, not the
      * lazy distributed pass that serves the users */
    totalNanos: Long,
)

/** RECOPT — the sampling-based MIPS serving optimizer (§4.1).
  *
  * Pipeline: (1) build every candidate index in full (construction is cheap
  * relative to traversal — Fig. 2); (2) on each block of users, one of P,
  * pick a random user sample, the same for every candidate and no smaller
  * than the block's share of the users that fill 4x L2 (§4.1's floor,
  * [[sampleSize]]), bind every candidate to the block (RECDEX builds its
  * user index over it) and time it in chunks on the sample, stopping an
  * index early once a t-test separates it from MM ([[onBlock]]); (3)
  * extrapolate each strategy's total runtime, pick the minimum ([[report]]);
  * (4) keep the winner's sampled results and serve the rest of each block
  * with what the winner built for it ([[TimedBlock.serve]]). Local
  * [[serveAll]] is one block, part 0 of 1; Spark's blocks are its partitions.
  */
object RecOpt {

  /** p-value below which the t-test stops timing an index. */
  val TTestAlpha = 0.05

  /** Users an index is timed on before the first t-test. */
  val MinTTestUsers = 16

  /** Sampled users each candidate serves per timed call. Of 16, 32 and 64,
    * 16 had the lowest Table 2 overhead (a stopped index is timed on at
    * least two chunks), and the three served the benchmark workloads alike. */
  val ChunkUsers = 16

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean

  /** The clock [[timeBlock]] reads, the calling thread's CPU time. On the wall
    * clock, one wait of the thread (preempted, or stopped for GC) in a chunk
    * widens the t-test's spread and keeps a losing index timed for longer. */
  private def busyNanos(): Long = threads.getCurrentThreadCpuTime

  /** Pure decision kernel: pick the strategy with the lowest estimated total
    * runtime (deterministic tie-break on name). Split out so decision logic
    * is testable without a wall clock. */
  def decide(estimates: Seq[StrategyEstimate]): StrategyEstimate = {
    require(estimates.nonEmpty, "no strategies to decide between")
    estimates.minBy(e => (e.estTotalNanos, e.name))
  }

  /** Minimum sample size such that the user block occupies >= 4x L2 (§4.1). */
  def minSampleForCache(f: Int, l2CacheBytes: Long): Int =
    math.max(1, math.ceil(4.0 * l2CacheBytes / (f.toLong * 8)).toInt)

  /** Rows to time in a block of `rows` users, one of `blocks`: a
    * `sampleFraction` of them, never below ⌈cache-occupancy floor / blocks⌉
    * nor above `rows`. Local [[serveAll]] is one block; Spark passes its user
    * partition count, which the driver knows without counting the users. */
  def sampleSize(rows: Int, f: Int, cfg: RecOptConfig, blocks: Int = 1): Int =
    math.min(rows, math.max(math.ceil(rows * cfg.sampleFraction).toInt,
      ((minSampleForCache(f, cfg.l2CacheBytes) + blocks - 1L) / blocks).toInt))

  /** The row picker of every block: `count` of `rows` rows, drawn by a
    * shuffle seeded with `seed`. Returns sorted row indices. */
  def sampleRows(rows: Int, count: Int, seed: Long): Array[Int] =
    new scala.util.Random(seed).shuffle((0 until rows).toVector).take(count).sorted.toArray

  /** The local user sample: [[sampleSize]] rows picked with `cfg.seed`. */
  def sampleIndices(totalUsers: Int, f: Int, cfg: RecOptConfig): Array[Int] =
    sampleRows(totalUsers, sampleSize(totalUsers, f, cfg), cfg.seed)

  /** Index construction (C_I) for every candidate: `(name, prepared,
    * buildNanos)` for MM first, whose "build" only wraps the item matrix and
    * counts as free, then for each index solver in order, timed. */
  def buildCandidates(items: Matrix, indexSolvers: Seq[MipsSolver])
      : Seq[(String, PreparedMips, Long)] =
    ("MM", new BruteForceMM().prepare(items), 0L) +: indexSolvers.map { solver =>
      val t0 = System.nanoTime()
      val prep = solver.prepare(items)
      (solver.name, prep, System.nanoTime() - t0)
    }

  /** RECOPT on block `part` of `parts`: picks [[sampleSize]]`(rows, f, cfg,
    * parts)` rows with [[sampleRows]] seeded with `cfg.seed + part` (part 0
    * of 1 picks [[sampleIndices]]' rows) and times the `candidates`, MM
    * first, on them ([[timeBlock]]). An empty block times nothing. */
  def onBlock(block: Matrix, part: Int, parts: Int, k: Int, cfg: RecOptConfig,
              candidates: Seq[(String, PreparedMips)]): TimedBlock = {
    val sampled = sampleRows(block.rows, sampleSize(block.rows, block.cols, cfg, parts), cfg.seed + part)
    new TimedBlock(block.rows, sampled,
      if (block.rows == 0) Seq.empty else timeBlock(block, sampled, k, candidates))
  }

  /** The sample-timing kernel of [[onBlock]].
    * Every candidate is first bound to the block (`PreparedMips.bind`, the
    * block's fixed cost: RECDEX builds its user index over the whole block).
    * Then each candidate's binding serves the `sampled` rows in order,
    * [[ChunkUsers]] per timed call, timed like the bind on the thread's CPU
    * time ([[busyNanos]]). MM, which `candidates` must start with, serves them
    * all; its per-user mean is the baseline. Every other candidate stops
    * once, after at least [[MinTTestUsers]] users and two chunks (the t-test
    * needs two values), a one-sample t-test of its per-user cost per chunk
    * against MM's mean has p < [[TTestAlpha]].
    * Returns one timing per candidate, in order. */
  private[recopt] def timeBlock(block: Matrix, sampled: Array[Int], k: Int,
                                candidates: Seq[(String, PreparedMips)]): Seq[BlockTiming] = {
    val n = sampled.length
    require(n > 0, "cannot time an empty sample")
    require(candidates.headOption.exists(_._1 == "MM"), "the first candidate must be MM")
    def time(name: String, prep: PreparedMips, mmPerUser: Option[Double]): BlockTiming = {
      val b0 = busyNanos()
      val serve = prep.bind(block, k)
      val fixed = busyNanos() - b0
      val results = new Array[TopKResult](n)
      val perUser = new TTest.Running
      var busy = 0L
      var done = 0
      def separated = done >= MinTTestUsers &&
        mmPerUser.exists(TTest.pValue(perUser.summary, _) < TTestAlpha)
      while (done < n && !separated) {
        val rows = sampled.slice(done, math.min(n, done + ChunkUsers))
        val t0 = busyNanos()
        val res = serve(rows)
        val t = busyNanos() - t0
        System.arraycopy(res, 0, results, done, rows.length)
        busy += t
        perUser.add(t.toDouble / rows.length)
        done += rows.length
      }
      new BlockTiming(name, fixed, busy, done, results, serve)
    }
    val mm = time("MM", candidates.head._2, None)
    mm +: candidates.tail.map { case (name, prep) =>
      time(name, prep, Some(mm.nanos.toDouble / n))
    }
  }

  /** Decide from the blocks' `(name, fixed nanos, busy nanos, users)` costs
    * ([[TimedBlock.costs]]), summed per candidate: estimate each of `builds`
    * (name, build nanos) as build + fixed + busy per user x `totalUsers` and
    * pick the minimum. The sample size is what MM timed; the waste is the
    * losers' builds and busy time. */
  def report(builds: Seq[(String, Long)], costs: Seq[(String, Long, Long, Int)],
             totalUsers: Long, startNanos: Long): RecOptReport = {
    val summed = costs.groupMapReduce(_._1)(c => (c._2, c._3, c._4.toLong)) {
      case ((f1, n1, u1), (f2, n2, u2)) => (f1 + f2, n1 + n2, u1 + u2)
    }
    val estimates = builds.map { case (name, itemBuild) =>
      val (fixed, nanos, users) = summed(name)
      val perUser = nanos.toDouble / users
      StrategyEstimate(name, itemBuild + fixed, perUser, users, itemBuild + fixed + perUser * totalUsers)
    }
    val chosen = decide(estimates).name
    val wasted = estimates.filter(_.name != chosen)
      .map(e => e.buildNanos + (e.perUserNanos * e.usersTimed).toLong).sum
    RecOptReport(chosen, estimates, summed("MM")._3, totalUsers, wasted,
      System.nanoTime() - startNanos)
  }

  /** The decision on one block whose every row is sampled ([[onBlock]] at a
    * `sampleFraction` of 1), extrapolated to `totalUsers`. */
  def estimate(sampleUsers: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver], totalUsers: Long,
               cfg: RecOptConfig = RecOptConfig()): RecOptReport =
    onUsers(sampleUsers, items, k, indexSolvers, totalUsers, cfg.copy(sampleFraction = 1.0))._1

  /** Serve exact top-K for every user, choosing between blocked MM and the
    * given index solvers. Returns per-user results (row-aligned with
    * `users`) plus the optimizer report. */
  def serveAll(users: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver],
               cfg: RecOptConfig = RecOptConfig()): (Array[TopKResult], RecOptReport) = {
    val t0 = System.nanoTime()
    val (report, block) = onUsers(users, items, k, indexSolvers, users.rows, cfg)
    (block.serve(report.chosen), report.copy(totalNanos = System.nanoTime() - t0))
  }

  /** Build every candidate, run [[onBlock]] on `users` as part 0 of 1 and
    * decide, extrapolating to `totalUsers`. Fails before building anything
    * if `users` is empty, its dimension differs from the items' or k < 1. */
  private def onUsers(users: Matrix, items: Matrix, k: Int, indexSolvers: Seq[MipsSolver],
                      totalUsers: Long, cfg: RecOptConfig): (RecOptReport, TimedBlock) = {
    val t0 = System.nanoTime()
    require(users.cols == items.cols, s"users have ${users.cols} features, items have ${items.cols}")
    require(users.rows > 0, "user matrix is empty: nothing to serve")
    require(k >= 1, s"k must be >= 1, got $k")
    val candidates = buildCandidates(items, indexSolvers)
    val block = onBlock(users, 0, 1, k, cfg, candidates.map { case (name, prep, _) => name -> prep })
    (report(candidates.map { case (name, _, build) => name -> build }, block.costs, totalUsers, t0), block)
  }
}
