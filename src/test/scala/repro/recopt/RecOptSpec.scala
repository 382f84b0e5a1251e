package repro.recopt

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.{BruteForceMM, Matrix, MipsSolver, PreparedMips, TopKHeap, TopKResult}
import repro.lemp.LempIndex
import repro.mf.ModelZoo
import repro.mips.SolverTestSupport
import repro.recdex.{Recdex, RecdexPrepared}

class RecOptSpec extends AnyFunSuite with PropSupport {

  // ---- decision kernel ----

  test("decide picks the minimum estimated total") {
    val es = Seq(
      StrategyEstimate("A", 0, 10, 5, 1000),
      StrategyEstimate("B", 0, 10, 5, 500),
      StrategyEstimate("C", 0, 10, 5, 700))
    assert(RecOpt.decide(es).name == "B")
  }

  test("decide breaks exact ties on name (deterministic)") {
    val es = Seq(
      StrategyEstimate("Z", 0, 1, 1, 100),
      StrategyEstimate("A", 0, 1, 1, 100))
    assert(RecOpt.decide(es).name == "A")
  }

  test("decide rejects empty input") {
    assertThrows[IllegalArgumentException](RecOpt.decide(Seq.empty))
  }

  checkProp("property: decide always returns the argmin", minTests = 40) {
    Prop.forAll(Gen.nonEmptyListOf(Gen.chooseNum(1.0, 1e9))) { totals =>
      val es = totals.zipWithIndex.map { case (t, i) =>
        StrategyEstimate(s"s$i", 0, 0, 1, t)
      }
      RecOpt.decide(es).estTotalNanos == totals.min
    }
  }

  // ---- sample sizing ----

  test("minSampleForCache: 4x 1MiB over f=100 doubles is 5243 users") {
    // 4 * 1048576 / (100 * 8) = 5242.88 -> ceil = 5243
    assert(RecOpt.minSampleForCache(100, 1L << 20) == 5243)
  }

  test("minSampleForCache never below 1") {
    assert(RecOpt.minSampleForCache(1000000, 1) == 1)
  }

  test("sampleIndices respects the fraction and the cache floor") {
    val cfg = RecOptConfig(sampleFraction = 0.01, l2CacheBytes = 1L << 14) // 16 KiB
    val idx = RecOpt.sampleIndices(10000, 8, cfg)
    // floor = ceil(4*16384/64) = 1024 > 1% of 10000
    assert(idx.length == 1024)
    assert(idx.toSeq == idx.toSeq.sorted)
    assert(idx.distinct.length == idx.length)
    assert(idx.forall(i => i >= 0 && i < 10000))
    assert(idx.length == RecOpt.sampleSize(10000, 8, cfg))
  }

  test("sampleIndices clamps to the population") {
    val idx = RecOpt.sampleIndices(10, 4, RecOptConfig(sampleFraction = 0.5))
    assert(idx.length == 10)
  }

  test("sampleIndices is sampleRows of sampleSize rows with the config's seed") {
    val cfg = RecOptConfig(sampleFraction = 0.1, l2CacheBytes = 1, seed = 5)
    assert(RecOpt.sampleIndices(700, 8, cfg).toSeq == RecOpt.sampleRows(700, 70, 5).toSeq)
    val rows = RecOpt.sampleRows(700, 70, 5)
    assert(rows.toSeq == rows.toSeq.sorted && rows.distinct.length == 70)
    assert(RecOpt.sampleRows(700, 70, 6).toSeq != rows.toSeq)
    assert(RecOpt.sampleRows(3, 3, 1).toSeq == Seq(0, 1, 2))
  }

  test("sampleIndices deterministic in the seed") {
    val cfg = RecOptConfig(seed = 42)
    val a = RecOpt.sampleIndices(1000, 16, cfg)
    val b = RecOpt.sampleIndices(1000, 16, cfg)
    assert(a.toSeq == b.toSeq)
  }

  // ---- the per-block function ----

  /** MM, LEMP and RECDEX prepared over `items`, named, MM first. */
  private def candidates(items: Matrix): Seq[(String, PreparedMips)] =
    Seq(new BruteForceMM(), new LempIndex(), new Recdex(numClusters = 3, blockSize = 8))
      .map(s => s.name -> s.prepare(items))

  test("onBlock: an empty block has no costs and serves no rows") {
    val items = Matrix.randn(30, 8, seed = 5)
    val block = RecOpt.onBlock(new Matrix(0, 8, Array.empty[Double]), 2, 4, 3, RecOptConfig(),
      candidates(items))
    assert(block.rows == 0 && block.sampled.isEmpty && block.costs.isEmpty)
    assert(block.serve("MM").isEmpty)
  }

  for (chosen <- Seq("MM", "LEMP", "RECDEX"))
    test(s"onBlock: serving a block twice with $chosen returns the same ids and score bits") {
      val (users, items) = ModelZoo.tiny(200, 90, 8, seed = 167, concentrated = true)
      // a fifth of the rows sampled, so the binding serves the rest
      val block = RecOpt.onBlock(users, 0, 1, 4, RecOptConfig(sampleFraction = 0.2, l2CacheBytes = 1),
        candidates(items))
      assert(block.sampled.length == 40 && block.costs.map(_._1) == Seq("MM", "LEMP", "RECDEX"))
      val first = block.serve(chosen)
      assert(block.costs.map(_._1) == Seq(chosen), "the other candidates' bindings are kept")
      SolverTestSupport.assertIdentical(first, SolverTestSupport.bruteForce(users, items, 4), chosen)
      SolverTestSupport.assertIdentical(block.serve(chosen), first, s"$chosen, second serve")
    }

  test("onBlock: part 0 of 1 samples sampleIndices' rows, and part p of P its share seeded with seed + p") {
    val (users, items) = ModelZoo.tiny(300, 40, 8, seed = 173)
    val mm = Seq("MM" -> new BruteForceMM().prepare(items))
    for (fraction <- Seq(0.05, 0.3, 1.0); seed <- Seq(3L, 17L)) {
      val cfg = RecOptConfig(sampleFraction = fraction, l2CacheBytes = 1L << 10, seed = seed)
      assert(RecOpt.onBlock(users, 0, 1, 2, cfg, mm).sampled.toSeq ==
        RecOpt.sampleIndices(300, 8, cfg).toSeq, s"fraction $fraction, seed $seed")
      assert(RecOpt.onBlock(users, 2, 4, 2, cfg, mm).sampled.toSeq ==
        RecOpt.sampleRows(300, RecOpt.sampleSize(300, 8, cfg, 4), seed + 2).toSeq)
    }
  }

  // ---- end-to-end serveAll: correctness regardless of which strategy wins ----

  for (conc <- Seq(false, true))
    test(s"serveAll returns exact results (concentrated=$conc)") {
      val (users, items) = ModelZoo.tiny(300, 150, 12, seed = 61, concentrated = conc)
      val expect = SolverTestSupport.bruteForce(users, items, 5)
      val (got, report) = RecOpt.serveAll(users, items, 5,
        Seq(new LempIndex(), new Recdex(numClusters = 4, blockSize = 16)),
        RecOptConfig(sampleFraction = 0.05, l2CacheBytes = 1L << 12))
      SolverTestSupport.assertSame(got, expect, 1e-9, s"recopt conc=$conc")
      assert(Seq("MM", "LEMP", "RECDEX").contains(report.chosen))
      assert(report.estimates.map(_.name).toSet == Set("MM", "LEMP", "RECDEX"))
      assert(report.sampleSize > 0 && report.sampleSize <= 300)
      assert(report.totalNanos > 0)
    }

  test("serveAll with no indexes degenerates to MM and still serves exactly") {
    val (users, items) = ModelZoo.tiny(100, 60, 8, seed = 67)
    val expect = SolverTestSupport.bruteForce(users, items, 3)
    val (got, report) = RecOpt.serveAll(users, items, 3, Seq.empty,
      RecOptConfig(sampleFraction = 0.05, l2CacheBytes = 1L << 10))
    SolverTestSupport.assertSame(got, expect, 1e-9)
    assert(report.chosen == "MM")
    assert(report.wastedNanos == 0L)
  }

  /** A LEMP index that counts its builds. */
  private final class CountingPrepares extends MipsSolver {
    var prepares = 0
    override def name: String = "LEMP"
    override def prepare(items: Matrix): PreparedMips = { prepares += 1; new LempIndex().prepare(items) }
  }

  for ((label, users, k, message) <- Seq(
      ("users with more features than the items", Matrix.randn(200, 12, seed = 3), 3,
        "users have 12 features, items have 8"),
      ("users with fewer features than the items", Matrix.randn(200, 4, seed = 3), 3,
        "users have 4 features, items have 8"),
      ("an empty user matrix", new Matrix(0, 8, Array.empty[Double]), 3, "user matrix is empty"),
      ("k = 0", Matrix.randn(200, 8, seed = 3), 0, "k must be >= 1, got 0")))
    test(s"RECOPT rejects $label before building an index") {
      val items = Matrix.randn(30, 8, seed = 5)
      val solver = new CountingPrepares
      for (call <- Seq[() => Any](() => RecOpt.serveAll(users, items, k, Seq(solver)),
          () => RecOpt.estimate(users, items, k, Seq(solver), totalUsers = 100))) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(message), e.getMessage)
      }
      assert(solver.prepares == 0, "an index was built before the inputs were checked")
    }

  test("estimate extrapolates per-user cost to the population") {
    val (users, items) = ModelZoo.tiny(200, 80, 8, seed = 71)
    val sample = users.sliceRows(0, 50)
    val out = RecOpt.estimate(sample, items, 3, Seq(new LempIndex()),
      totalUsers = 200, RecOptConfig())
    // estTotal = build + perUser * totalUsers exactly, by construction
    out.estimates.foreach { e =>
      assert(math.abs(e.estTotalNanos - (e.buildNanos + e.perUserNanos * 200)) <
        1e-6 * e.estTotalNanos + 1, e.name)
    }
    assert(out.estimates.map(_.name) == Seq("MM", "LEMP"))
  }

  /** A synthetic point-query index whose per-user time is deterministic and
    * far from MM's — the t-test must stop well before the full sample. */
  private class SlowFakeSolver(delayNanos: Long) extends MipsSolver {
    override def name: String = "SLOWFAKE"
    override def prepare(items: Matrix): PreparedMips = new PreparedMips {
      override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
        val end = System.nanoTime() + delayNanos
        while (System.nanoTime() < end) {} // spin: deterministic-ish delay
        val h = new TopKHeap(k)
        var i = 0
        while (i < items.rows) { h.offer(items.rowDot(i, user), i); i += 1 }
        h.result()
      }
    }
  }

  test("report extrapolates to 3e9 users and sums block counts past Int.MaxValue") {
    // two blocks that each timed 1.5e9 users: 3e9 in all, more than an Int holds
    val blocks = Seq(("MM", 0L, 3000000000L, 1500000000), ("MM", 0L, 3000000000L, 1500000000),
      ("IDX", 5L, 1000L, 10), ("IDX", 5L, 1000L, 10))
    val report = RecOpt.report(Seq("MM" -> 0L, "IDX" -> 100L), blocks, 3000000000L, System.nanoTime())
    assert(report.totalUsers == 3000000000L && report.sampleSize == 3000000000L)
    val Seq(mm, idx) = report.estimates
    assert(mm.usersTimed == 3000000000L && mm.perUserNanos == 2.0 && mm.estTotalNanos == 6e9)
    assert(idx.usersTimed == 20 && idx.buildNanos == 110 && idx.estTotalNanos == 110 + 100.0 * 3e9)
    assert(report.chosen == "MM" && report.wastedNanos == 110 + 2000)
  }

  test("t-test stops early on a clearly slower point-query index") {
    val (users, items) = ModelZoo.tiny(400, 50, 8, seed = 73)
    val sample = users.sliceRows(0, 200)
    val out = RecOpt.estimate(sample, items, 3,
      Seq(new SlowFakeSolver(2000000L)), // 2 ms per query, ~1000x MM's per-user cost
      totalUsers = 400)
    val fake = out.estimates.find(_.name == "SLOWFAKE").get
    assert(fake.usersTimed < 200, s"t-test did not stop early: timed ${fake.usersTimed}")
    // the test runs after whole chunks, from the second on
    assert(fake.usersTimed % RecOpt.ChunkUsers == 0 && fake.usersTimed >= 2 * RecOpt.ChunkUsers)
    assert(out.chosen == "MM")
  }

  /** A strategy whose binding spins `delayNanos` per user it serves and
    * records the rows of every call. */
  private final class SlowBound(items: Matrix, delayNanos: Long) extends PreparedMips {
    var calls = Seq.empty[Seq[Int]]
    private val mm = new BruteForceMM().prepare(items)
    override def query(user: Array[Double], userId: Int, k: Int): TopKResult = mm.query(user, userId, k)
    override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = rows => {
      calls :+= rows.toSeq
      val end = System.nanoTime() + delayNanos * rows.length
      while (System.nanoTime() < end) {}
      mm.queryBatch(block.selectRows(rows), k)
    }
  }

  test("a clearly slower user-indexed strategy stops early and MM is chosen") {
    val (users, items) = ModelZoo.tiny(400, 50, 8, seed = 79)
    val sampleIdx = Array.range(0, 400).filter(_ % 2 == 1)
    val slow = new SlowBound(items, 1000000L) // 1 ms per user, ~1000x MM's
    val Seq(mm, rd) = RecOpt.timeBlock(users, sampleIdx, 3,
      Seq("MM" -> new BruteForceMM().prepare(items), "SLOW" -> slow))
    assert(mm.users == 200)
    assert(rd.users < 200, s"t-test did not stop early: timed ${rd.users}")
    assert(rd.users >= 2 * RecOpt.ChunkUsers)
    // one call per chunk, in sample order, over the users it was timed on
    assert(slow.calls.forall(_.length == RecOpt.ChunkUsers))
    assert(slow.calls.flatten == sampleIdx.take(rd.users).toSeq)
    val report = RecOpt.report(Seq("MM" -> 0L, "SLOW" -> 0L), Seq(mm.cost, rd.cost), 400,
      System.nanoTime())
    assert(report.chosen == "MM")
    // the results it was timed on are kept, the rest are left to the winner
    val expect = SolverTestSupport.bruteForce(users, items, 3)
    SolverTestSupport.assertSame(rd.results.take(rd.users), sampleIdx.take(rd.users).map(expect), 1e-9)
    assert(rd.results.drop(rd.users).forall(_ == null))
  }

  test("timeBlock counts a candidate's CPU time, not the time its thread waits") {
    val (users, items) = ModelZoo.tiny(400, 50, 8, seed = 83)
    val sampleIdx = Array.range(0, 4 * RecOpt.ChunkUsers)
    val mm = new BruteForceMM().prepare(items)
    // serves like MM, but its thread sleeps 10 ms in every timed call
    val sleepy = new PreparedMips {
      override def query(user: Array[Double], userId: Int, k: Int): TopKResult = mm.query(user, userId, k)
      override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = rows => {
        Thread.sleep(10)
        mm.queryBatch(block.selectRows(rows), k)
      }
    }
    val Seq(_, sl) = RecOpt.timeBlock(users, sampleIdx, 3, Seq("MM" -> mm, "SLEEPY" -> sleepy))
    val calls = sl.users / RecOpt.ChunkUsers
    assert(calls >= 2 && sl.nanos < calls * 10000000L / 2, s"${sl.nanos} ns busy over $calls calls")
  }

  test("user-indexed strategies build once over the full population " +
      "(C_I accounting) when the full user matrix is supplied") {
    val (users, items) = ModelZoo.tiny(400, 100, 8, seed = 97, concentrated = true)
    val sampleIdx = Array(5, 50, 120, 200, 333, 390)
    val recdex = new CountingBinds(new RecdexPrepared(items, numClusters = 3, blockSize = 8))
    val mm = new BruteForceMM().prepare(items)
    val Seq(_, rd) = RecOpt.timeBlock(users, sampleIdx, 3, Seq("MM" -> mm, "RECDEX" -> recdex))
    // only the sampled walks are extrapolated; construction sits in buildNanos
    assert(rd.users == sampleIdx.length)
    assert(rd.fixedNanos > 0)
    val report = RecOpt.report(Seq("MM" -> 0L, "RECDEX" -> 7L),
      Seq(("MM", 0L, 10L, sampleIdx.length), rd.cost), 400, System.nanoTime())
    assert(report.estimates.find(_.name == "RECDEX").get.buildNanos == 7L + rd.fixedNanos)
    // one user index, over all 400 users, serves the sample and the rest
    assert(recdex.builtOver == Seq(400))
    val expect = SolverTestSupport.bruteForce(users, items, 3)
    val rest = (0 until 400).filterNot(sampleIdx.contains).toArray
    SolverTestSupport.assertSame(rd.serve(rest), rest.map(expect), 1e-9, "rest")
    assert(recdex.builtOver == Seq(400))
    // the sample results must be exact and row-aligned with sampleIdx
    val res = rd.results
    sampleIdx.indices.foreach { i =>
      SolverTestSupport.assertSame(Array(res(i)), Array(expect(sampleIdx(i))), 1e-9,
        s"sample row $i")
    }
  }

  /** Records the row count of every block it is bound to (for RECDEX, every
    * user index build). */
  private final class CountingBinds(inner: PreparedMips) extends PreparedMips {
    var builtOver = Seq.empty[Int]
    override def query(user: Array[Double], userId: Int, k: Int): TopKResult =
      inner.query(user, userId, k)
    override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] = {
      builtOver :+= block.rows
      inner.bind(block, k)
    }
  }

  test("serveAll reuses the built RECDEX user index for the remaining users") {
    val (users, items) = ModelZoo.tiny(350, 120, 10, seed = 103, concentrated = true)
    val expect = SolverTestSupport.bruteForce(users, items, 4)
    val (got, report) = RecOpt.serveAll(users, items, 4,
      Seq(new Recdex(numClusters = 4, blockSize = 16)),
      RecOptConfig(sampleFraction = 0.05, l2CacheBytes = 1L << 10))
    SolverTestSupport.assertSame(got, expect, 1e-9, "serveAll+userindex")
    assert(Seq("MM", "RECDEX").contains(report.chosen))
  }
}
