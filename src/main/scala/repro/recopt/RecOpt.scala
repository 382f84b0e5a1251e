package repro.recopt

import repro.core.{BruteForceMM, Matrix, MipsSolver, PreparedMips, TopKResult}
import repro.stats.TTest
import scala.annotation.unused

/** Configuration for the RECOPT online optimizer (§4).
  *
  * @param sampleFraction fraction of each block's users to time each
  *                       strategy on, at least one (paper uses 0.5–1%)
  */
final case class RecOptConfig(sampleFraction: Double = 0.01)

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
  * clock. `serve` is the binding, which answers block rows. */
private[recopt] final class BlockTiming(val name: String, val fixedNanos: Long, val nanos: Long,
                                        val users: Int, val serve: Array[Int] => Array[TopKResult]) {
  /** What [[RecOpt.report]] sums: `(name, fixedNanos, nanos, users)`. */
  def cost: (String, Long, Long, Int) = (name, fixedNanos, nanos, users)
}

/** One block of users after [[RecOpt.onBlock]] timed the candidates on it:
  * its row count and each candidate's timing and binding. */
final class TimedBlock private[recopt] (val rows: Int, private var timings: Seq[BlockTiming]) {
  /** Each candidate's cost; none for an empty block, the winner's after [[serve]]. */
  def costs: Seq[(String, Long, Long, Int)] = timings.map(_.cost)

  /** Every row's top-K, result i for row i, from the `chosen` candidate:
    * drops the others' bindings (RECDEX's user index with them) and serves
    * every row, the sampled ones too, in one call of the winner's binding.
    * An empty block serves no rows; serving again, also from another thread
    * at once, returns the same results. */
  def serve(chosen: String): Array[TopKResult] = {
    timings = timings.filter(_.name == chosen)
    require(rows == 0 || timings.nonEmpty, s"no candidate $chosen was timed on this block")
    timings.headOption.fold(Array.empty[TopKResult])(_.serve(Array.range(0, rows)))
  }
}

/** What RECOPT decided and what it cost to decide. */
final case class RecOptReport(
    chosen: String,
    estimates: Seq[StrategyEstimate],
    sampleSize: Long,
    totalUsers: Long,
    /** optimization work that serves no user: every strategy's sampled
      * busy time, the winner's included, since its rows are served again,
      * and the losing strategies' builds. On Spark the busy time is summed
      * over partitions timed concurrently. */
    wastedNanos: Long,
    /** wall-clock of the call: local `serveAll` includes serving every user;
      * Spark `topKAllWithRecOpt` covers only the decision phase, not the
      * lazy distributed pass that serves the users */
    totalNanos: Long,
)

/** RECOPT — the sampling-based MIPS serving optimizer (§4.1).
  *
  * Pipeline: (1) build every candidate index in full (construction is cheap
  * relative to traversal — Fig. 2); (2) on each block of users pick a
  * random sample of a `sampleFraction` of its rows, the same for every
  * candidate ([[sampleSize]]), bind every candidate to the block (RECDEX
  * builds its user index over it) and time it in chunks on the sample,
  * stopping an index early once a t-test separates it from MM
  * ([[onBlock]]); (3) extrapolate each strategy's total runtime, pick the
  * minimum ([[report]]); (4) serve every row of each block, the sampled
  * ones again, with what the winner built for it ([[TimedBlock.serve]]): the
  * sample only times, and no candidate's sampled results are kept. Local
  * [[serveAll]] is one block, part 0; Spark's blocks are its partitions.
  *
  * §4.1 also sets a floor on the sample, the users that fill 4x L2, so that
  * a blocked MM is timed with its steady-state cache behaviour. There is no
  * such floor here: MM scores one user at a time against dimension-major
  * items, and its per-user cost does not depend on the sample size.
  */
object RecOpt {

  /** p-value below which the t-test stops timing an index. */
  val TTestAlpha = 0.05

  /** Sampled users each candidate serves per timed call. Of 16, 32 and 64,
    * 16 had the lowest Table 2 overhead (a stopped index is timed on at
    * least two chunks), and the three served the benchmark workloads alike. */
  val ChunkUsers = 16

  /** The user sample's seed: block `part` shuffles its rows with
    * `SampleSeed + part`. */
  private[recopt] val SampleSeed = 7L

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

  /** Rows to time in a block of `rows` users: ⌈`sampleFraction` · rows⌉, at
    * least one and at most `rows`. Over any split of the users into blocks
    * the samples sum to at least `sampleFraction` of them. */
  def sampleSize(rows: Int, cfg: RecOptConfig): Int =
    math.min(rows, math.max(1, math.ceil(rows * cfg.sampleFraction).toInt))

  /** The row picker of every block: `count` of `rows` rows, drawn by a
    * shuffle seeded with `seed`. Returns sorted row indices. */
  def sampleRows(rows: Int, count: Int, seed: Long): Array[Int] =
    new scala.util.Random(seed).shuffle((0 until rows).toVector).take(count).sorted.toArray

  /** The local user sample: [[sampleSize]] rows picked with [[SampleSeed]].
    * `f` is unused; perfbench's `Layers` still passes it, and it goes with
    * ROADMAP item 1's benchmark change. */
  def sampleIndices(totalUsers: Int, @unused f: Int, cfg: RecOptConfig): Array[Int] =
    sampleRows(totalUsers, sampleSize(totalUsers, cfg), SampleSeed)

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

  /** RECOPT on block number `part`: picks [[sampleSize]]`(rows, cfg)` rows
    * with [[sampleRows]] seeded with `SampleSeed + part` (part 0 picks
    * [[sampleIndices]]' rows) and times the `candidates`, MM first, on them
    * ([[timeBlock]]). An empty block times nothing. */
  def onBlock(block: Matrix, part: Int, k: Int, cfg: RecOptConfig,
              candidates: Seq[(String, PreparedMips)]): TimedBlock = {
    val sampled = sampleRows(block.rows, sampleSize(block.rows, cfg), SampleSeed + part)
    new TimedBlock(block.rows,
      if (block.rows == 0) Seq.empty else timeBlock(block, sampled, k, candidates))
  }

  /** The sample-timing kernel of [[onBlock]].
    * Every candidate is first bound to the block (`PreparedMips.bind`, the
    * block's fixed cost: RECDEX builds its user index over the whole block).
    * Then each candidate's binding serves the `sampled` rows in order,
    * [[ChunkUsers]] per timed call, timed like the bind on the thread's CPU
    * time ([[busyNanos]]). MM, which `candidates` must start with, serves them
    * all; its per-user mean is the baseline. Every other candidate stops
    * once a one-sample t-test of its per-user cost per chunk against MM's
    * mean has p < [[TTestAlpha]], so after two chunks at the earliest (the
    * t-test needs two values). The chunks' results are dropped.
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
      val perUser = new TTest.Running
      var busy = 0L
      var done = 0
      def separated = mmPerUser.exists(TTest.pValue(perUser.summary, _) < TTestAlpha)
      while (done < n && !separated) {
        val rows = sampled.slice(done, math.min(n, done + ChunkUsers))
        val t0 = busyNanos()
        serve(rows)
        val t = busyNanos() - t0
        busy += t
        perUser.add(t.toDouble / rows.length)
        done += rows.length
      }
      new BlockTiming(name, fixed, busy, done, serve)
    }
    val mm = time("MM", candidates.head._2, None)
    mm +: candidates.tail.map { case (name, prep) =>
      time(name, prep, Some(mm.nanos.toDouble / n))
    }
  }

  /** Decide from the blocks' `(name, fixed nanos, busy nanos, users)` costs
    * ([[TimedBlock.costs]]), summed per candidate: estimate each of `builds`
    * (name, build nanos) as build + fixed + busy per user x `totalUsers` and
    * pick the minimum. The sample size is what MM timed; the waste is every
    * candidate's busy time and the losers' builds. */
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
    val wasted = summed.values.map(_._2).sum + estimates.filter(_.name != chosen).map(_.buildNanos).sum
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

  /** Build every candidate, run [[onBlock]] on `users` as part 0 and
    * decide, extrapolating to `totalUsers`. Fails before building anything
    * if `users` is empty, its dimension differs from the items', a user or
    * an item holds a NaN or infinite value, or k < 1. */
  private def onUsers(users: Matrix, items: Matrix, k: Int, indexSolvers: Seq[MipsSolver],
                      totalUsers: Long, cfg: RecOptConfig): (RecOptReport, TimedBlock) = {
    val t0 = System.nanoTime()
    require(users.cols == items.cols, s"users have ${users.cols} features, items have ${items.cols}")
    require(users.rows > 0, "user matrix is empty: nothing to serve")
    requireFinite(users, "user")
    requireFinite(items, "item")
    require(k >= 1, s"k must be >= 1, got $k")
    val candidates = buildCandidates(items, indexSolvers)
    val block = onBlock(users, 0, k, cfg, candidates.map { case (name, prep, _) => name -> prep })
    (report(candidates.map { case (name, _, build) => name -> build }, block.costs, totalUsers, t0), block)
  }

  /** Fails naming the first row of `m` that holds a NaN or infinite value. */
  private def requireFinite(m: Matrix, kind: String): Unit = {
    val bad = m.data.indexWhere(v => !java.lang.Double.isFinite(v))
    require(bad < 0, s"$kind ${bad / m.cols}: features hold a NaN or infinite value")
  }
}
