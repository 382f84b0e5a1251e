package repro.recopt

import repro.core.{BruteForceMM, Matrix, MipsSolver, PreparedMips, TopKResult, UserIndex,
  UserIndexedMips}
import repro.stats.TTest

/** Configuration for the RECOPT online optimizer (§4).
  *
  * @param sampleFraction fraction of users to time each strategy on (paper
  *                       uses 0.5–1%)
  * @param l2CacheBytes   assumed L2 cache size; the MM sample is grown until
  *                       the user block occupies at least 4x this (§4.1)
  * @param seed           PRNG seed for the user sample
  * @param tTestAlpha     p-value threshold for early stopping on point-query
  *                       indexes
  * @param minTTestUsers  users to time before the first t-test is attempted
  */
final case class RecOptConfig(
    sampleFraction: Double = 0.01,
    l2CacheBytes: Long = 1L << 20,
    seed: Long = 7,
    tTestAlpha: Double = 0.05,
    minTTestUsers: Int = 16,
)

/** Per-strategy runtime estimate produced from the sample. */
final case class StrategyEstimate(
    name: String,
    buildNanos: Long,
    perUserNanos: Double,
    usersTimed: Int,
    estTotalNanos: Double,
)

/** One strategy's busy time on one block of sampled users. `results(i)` is
  * block row i's top-K, or null where the t-test stopped before row i. */
final class BlockTiming(val name: String, val nanos: Long, val users: Int,
                        val results: Array[TopKResult])

/** Everything the estimation phase produced: the decision record and — so
  * the serve phase can reuse work — the prepared strategies and whatever
  * sample results each strategy already computed (entries may be null where
  * the t-test stopped early). */
final class EstimateOutcome(
    val report: RecOptReport,
    val prepared: Map[String, PreparedMips],
    val sampleResults: Map[String, Array[TopKResult]],
    val builtUserIndexes: Map[String, UserIndex],
) {
  def estimates: Seq[StrategyEstimate] = report.estimates
  def chosen: String = report.chosen
}

/** What RECOPT decided and what it cost to decide. */
final case class RecOptReport(
    chosen: String,
    estimates: Seq[StrategyEstimate],
    sampleSize: Int,
    totalUsers: Int,
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
  * relative to traversal — Fig. 2); (2) time blocked MM on a random user
  * sample big enough to exhibit cache-blocking behaviour (≥ 4x L2);
  * (3) time each index on the sample — per-user with t-test early stopping
  * for point-query indexes, whole-sample for batch-only ones; (4) extrapolate
  * each strategy's total runtime, pick the minimum, serve the remaining
  * users with the winner and reuse the winner's sampled results.
  */
object RecOpt {

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

  /** Users to time: `sampleFraction` of them, but never below the
    * cache-occupancy floor, and never more than there are. */
  def sampleSize(totalUsers: Int, f: Int, cfg: RecOptConfig): Int =
    math.min(totalUsers, math.max(math.ceil(totalUsers * cfg.sampleFraction).toInt,
      minSampleForCache(f, cfg.l2CacheBytes)))

  /** Pick the user sample: [[sampleSize]] users drawn with `cfg.seed`.
    * Returns sorted row indices. */
  def sampleIndices(totalUsers: Int, f: Int, cfg: RecOptConfig): Array[Int] = {
    val rng = new scala.util.Random(cfg.seed)
    rng.shuffle((0 until totalUsers).toVector).take(sampleSize(totalUsers, f, cfg)).sorted.toArray
  }

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

  /** The sample-timing kernel. `candidates` starts with MM, timed on the
    * whole block; its per-user mean is the t-test baseline. Each other
    * candidate is timed on the same block — whole-block if batch-only
    * (per-user t-testing would hide the cache effects it depends on, §4.1),
    * else per user with one-sample t-test early stopping against MM's mean.
    * Returns one timing per candidate, in order. The local estimate runs it
    * on the driver's sample; the Spark path on each partition's share of it. */
  def timeBlock(block: Matrix, k: Int, candidates: Seq[(String, PreparedMips)],
                cfg: RecOptConfig): Seq[BlockTiming] = {
    val n = block.rows
    require(n > 0, "cannot time an empty block")
    require(candidates.headOption.exists(_._1 == "MM"), "the first candidate must be MM")
    def wholeBlock(name: String, prep: PreparedMips): BlockTiming = {
      val t0 = System.nanoTime()
      val res = prep.queryBatch(block, k)
      new BlockTiming(name, System.nanoTime() - t0, n, res)
    }
    val mmTiming = wholeBlock("MM", candidates.head._2)
    val mmPerUser = mmTiming.nanos.toDouble / n
    mmTiming +: candidates.tail.map {
      case (name, prep) if prep.batchOnly => wholeBlock(name, prep)
      case (name, prep) =>
        val res = new Array[TopKResult](n)
        val times = new scala.collection.mutable.ArrayBuffer[Double](n)
        var i = 0
        var stopped = false
        while (i < n && !stopped) {
          val u = block.row(i)
          val qs = System.nanoTime()
          res(i) = prep.query(u, i, k)
          times += (System.nanoTime() - qs).toDouble
          i += 1
          if (i >= cfg.minTTestUsers && i < n) {
            val p = TTest.oneSamplePValue(times.toIndexedSeq, mmPerUser)
            if (p < cfg.tTestAlpha) stopped = true
          }
        }
        new BlockTiming(name, times.sum.toLong, times.length, res)
    }
  }

  /** Decide from `(name, busy nanos, users)` sample timings, summed per
    * candidate: estimate each of `builds` (name, build nanos) as build + busy
    * per user x `totalUsers` and pick the minimum. The sample size is what
    * MM timed; the waste is the losers' builds and busy time. */
  def report(builds: Seq[(String, Long)], timings: Seq[(String, Long, Int)],
             totalUsers: Int, startNanos: Long): RecOptReport = {
    val busy = timings.groupMapReduce(_._1)(t => (t._2, t._3)) {
      case ((n1, u1), (n2, u2)) => (n1 + n2, u1 + u2)
    }
    val estimates = builds.map { case (name, buildNanos) =>
      val (nanos, users) = busy(name)
      val perUser = nanos.toDouble / users
      StrategyEstimate(name, buildNanos, perUser, users, buildNanos + perUser * totalUsers)
    }
    val chosen = decide(estimates).name
    val wasted = estimates.filter(_.name != chosen)
      .map(e => e.buildNanos + (e.perUserNanos * e.usersTimed).toLong).sum
    RecOptReport(chosen, estimates, busy("MM")._2, totalUsers, wasted,
      System.nanoTime() - startNanos)
  }

  /** Estimation phase: build every candidate, time it on the sample, decide.
    * `totalUsers` is the population the per-user costs extrapolate to (it
    * may exceed `sampleUsers.rows`).
    *
    * When `fullUsers`/`sampleIdx` are supplied (the local batch path),
    * user-indexed strategies (RECDEX) build their user index over the FULL
    * population once (counted as construction cost, as in §4.2's C_I) and
    * only the sampled walks are extrapolated; the built index is returned so
    * serving reuses it. Every other strategy is timed by [[timeBlock]]. */
  def estimate(sampleUsers: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver], totalUsers: Int,
               cfg: RecOptConfig = RecOptConfig(),
               fullUsers: Option[Matrix] = None,
               sampleIdx: Option[Array[Int]] = None): EstimateOutcome = {
    val t0 = System.nanoTime()
    val candidates = buildCandidates(items, indexSolvers)
    val userIndexed: Map[String, UserIndexedMips] = (fullUsers, sampleIdx) match {
      case (Some(_), Some(_)) =>
        candidates.collect { case (name, ui: UserIndexedMips, _) => name -> ui }.toMap
      case _ => Map.empty
    }
    val blockTimed = timeBlock(sampleUsers, k,
      candidates.collect { case (name, prep, _) if !userIndexed.contains(name) => name -> prep },
      cfg).map(t => t.name -> t).toMap

    var builtIdx = Map.empty[String, UserIndex]
    val timed = candidates.map { case (name, _, buildNanos) =>
      userIndexed.get(name) match {
        case Some(ui) =>
          // user-indexed strategy: build ONCE over the full population
          // (construction cost C_I), extrapolate only the sampled walk
          val uStart = System.nanoTime()
          val userIndex = ui.buildUserIndex(fullUsers.get)
          val userBuildNanos = System.nanoTime() - uStart
          builtIdx += name -> userIndex
          val qStart = System.nanoTime()
          val res = userIndex.querySubset(sampleIdx.get, k)
          (new BlockTiming(name, System.nanoTime() - qStart, res.length, res),
            buildNanos + userBuildNanos)
        case None => (blockTimed(name), buildNanos)
      }
    }

    new EstimateOutcome(
      report(timed.map { case (t, b) => t.name -> b },
        timed.map { case (t, _) => (t.name, t.nanos, t.users) }, totalUsers, t0),
      candidates.map { case (name, prep, _) => name -> prep }.toMap,
      timed.map { case (t, _) => t.name -> t.results }.toMap, builtIdx)
  }

  /** Serve exact top-K for every user, choosing between blocked MM and the
    * given index solvers. Returns per-user results (row-aligned with
    * `users`) plus the optimizer report. */
  def serveAll(users: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver],
               cfg: RecOptConfig = RecOptConfig()): (Array[TopKResult], RecOptReport) = {
    val t0 = System.nanoTime()
    val n = users.rows
    val sampleIdx = sampleIndices(n, users.cols, cfg)
    val sampleUsers = users.selectRows(sampleIdx)

    val est = estimate(sampleUsers, items, k, indexSolvers, n, cfg,
      fullUsers = Some(users), sampleIdx = Some(sampleIdx))

    // --- serve the remaining users with the winner, reusing sample results ---
    val out = reuseSample(n, sampleIdx, est.sampleResults(est.chosen)) { remainingIdx =>
      est.builtUserIndexes.get(est.chosen) match {
        case Some(userIndex) => userIndex.querySubset(remainingIdx, k)
        case None => est.prepared(est.chosen).queryBatch(users.selectRows(remainingIdx), k)
      }
    }

    (out, est.report.copy(totalNanos = System.nanoTime() - t0))
  }

  /** The top-K of `n` users given the winner's results on a sample:
    * `sampled(i)` belongs to user `sampleIdx(i)` and is null where the t-test
    * stopped. Sampled results are kept as they are; `serve` runs once, on the
    * users left without one in ascending order, and not at all if there are
    * none. Result i belongs to user i. */
  def reuseSample(n: Int, sampleIdx: Array[Int], sampled: Array[TopKResult])
                 (serve: Array[Int] => Array[TopKResult]): Array[TopKResult] = {
    val out = new Array[TopKResult](n)
    var i = 0
    while (i < sampled.length) { out(sampleIdx(i)) = sampled(i); i += 1 }
    val remainingIdx = (0 until n).filter(out(_) == null).toArray
    if (remainingIdx.nonEmpty) {
      val remRes = serve(remainingIdx)
      var j = 0
      while (j < remainingIdx.length) { out(remainingIdx(j)) = remRes(j); j += 1 }
    }
    out
  }
}
