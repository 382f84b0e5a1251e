package repro.recdex

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.Matrix
import repro.mf.ModelZoo
import repro.mips.SolverTestSupport

/** The construction/query split added for RECOPT's C_I/Q_I accounting:
  * a built user index must serve any subset exactly and agree with the
  * plain batch path.
  */
class RecdexUserIndexSpec extends AnyFunSuite with PropSupport {

  private def prepared(nu: Int, ni: Int, f: Int, b: Int, conc: Boolean, seed: Long) = {
    val (users, items) = ModelZoo.tiny(nu, ni, f, seed, concentrated = conc)
    val prep = new Recdex(numClusters = 4, blockSize = b).prepare(items)
      .asInstanceOf[RecdexPrepared]
    (users, items, prep)
  }

  private def built(nu: Int, ni: Int, f: Int, b: Int, conc: Boolean, seed: Long) = {
    val (users, items, prep) = prepared(nu, ni, f, b, conc, seed)
    (users, items, prep.buildUserIndexImpl(users))
  }

  for (conc <- Seq(false, true); b <- Seq(0, 16)) {
    test(s"queryAll matches brute force (concentrated=$conc blockSize=$b)") {
      val (users, items, idx) = built(150, 90, 10, b, conc, seed = 41)
      val expect = SolverTestSupport.bruteForce(users, items, 5)
      SolverTestSupport.assertIdentical(idx.queryAll(5), expect)
    }

    test(s"a binding serves the queryAll rows it is asked for (concentrated=$conc blockSize=$b)") {
      val (users, _, prep) = prepared(150, 90, 10, b, conc, seed = 43)
      val all = prep.buildUserIndexImpl(users).queryAll(4)
      val rows = Array(3, 17, 42, 149, 0)
      val sub = prep.bind(users, 4)(rows)
      rows.indices.foreach { i =>
        assert(sub(i).ids.toSeq == all(rows(i)).ids.toSeq, s"row ${rows(i)}")
        assert(sub(i).scores.toSeq == all(rows(i)).scores.toSeq)
      }
    }
  }

  checkProp("property: a binding serves queryAll's rows at random subsets, in ids and score bits",
      minTests = 40) {
    val models = for (conc <- Seq(false, true); b <- Seq(0, 16))
      yield prepared(150, 90, 10, b, conc, seed = 45)
    val alls = models.map { case (users, _, prep) => prep.buildUserIndexImpl(users).queryAll(4) }
    val serves = models.map { case (users, _, prep) => prep.bind(users, 4) }
    val gen = for {
      which <- Gen.choose(0, models.length - 1)
      size <- Gen.choose(0, 150)
      seed <- Gen.long
    } yield (which, new scala.util.Random(seed).shuffle((0 until 150).toVector).take(size).toArray)
    Prop.forAll(gen) { case (which, rows) =>
      val sub = serves(which)(rows)
      sub.length == rows.length && rows.indices.forall { i =>
        val all = alls(which)(rows(i))
        sub(i).ids.toSeq == all.ids.toSeq &&
          sub(i).scores.map(java.lang.Double.doubleToRawLongBits).toSeq ==
            all.scores.map(java.lang.Double.doubleToRawLongBits).toSeq
      }
    }
  }

  // Chunk edges: |I| and B off multiples of the chunk width, no head, a head
  // covering the list, k past the chunk width and past |I|.
  checkProp("property: at the chunk edges both walks return brute force's ids and score bits, " +
      "and the blocked walk scores up to the first chunk start the per-item walk reaches", minTests = 40) {
    val c = RecdexPrepared.ChunkItems
    val gen = for {
      ni <- Gen.oneOf(Gen.choose(1, 3 * c + 7), Gen.const(2 * c))
      b <- Gen.oneOf(Gen.const(0), Gen.choose(1, ni - 1 max 1), Gen.const(c + 3), Gen.choose(ni, ni + 5))
      k <- Gen.oneOf(Gen.choose(1, 12), Gen.choose(c, c + 9), Gen.const(ni + 1))
      nu <- Gen.choose(1, 60)
      f <- Gen.choose(1, 12)
      conc <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, 10000L)
    } yield (ni, b, k, nu, f, conc, seed)
    Prop.forAll(gen) { case (ni, b, k, nu, f, conc, seed) =>
      val (users, items) = ModelZoo.tiny(nu, ni, f, seed, concentrated = conc)
      val idx = new Recdex(numClusters = 4, blockSize = b).prepare(items).asInstanceOf[RecdexPrepared]
        .buildUserIndexImpl(users)
      val expect = SolverTestSupport.bruteForce(users, items, k)
      val all = Array.range(0, nu)
      val (perItem, blocked) = (new Array[Long](nu), new Array[Long](nu))
      SolverTestSupport.assertIdentical(idx.queryImpl(all, k, shareBlocked = false, perItem), expect, "per-item")
      SolverTestSupport.assertIdentical(idx.queryImpl(all, k, shareBlocked = true, blocked), expect, "blocked")
      val starts = RecdexPrepared.chunkStarts(ni, b)
      all.forall { u =>
        val firstStart = starts.find(_ >= math.max(perItem(u), math.min(b, ni).toLong)).get
        blocked(u) >= perItem(u) && blocked(u) == firstStart && blocked(u) <= ni
      }
    }
  }

  test("chunk starts: the head, then every ChunkItems items, then |I|") {
    val c = RecdexPrepared.ChunkItems
    assert(RecdexPrepared.chunkStarts(2 * c + 1, 0).toSeq == Seq(0, c, 2 * c, 2 * c + 1))
    assert(RecdexPrepared.chunkStarts(2 * c, 5).toSeq == Seq(0, 5, 5 + c, 2 * c))
    assert(RecdexPrepared.chunkStarts(10, 10).toSeq == Seq(0, 10))
    assert(RecdexPrepared.chunkStarts(10, 4096).toSeq == Seq(0, 10))
    assert(RecdexPrepared.chunkStarts(0, 3).toSeq == Seq(0))
  }

  test("a binding serves a single row") {
    val (users, items, prep) = prepared(60, 40, 6, 8, conc = true, seed = 47)
    val sub = prep.bind(users, 3)(Array(33))
    val expect = SolverTestSupport.bruteForce(users, items, 3)(33)
    assert(sub.length == 1)
    assert(sub(0).ids.toSeq == expect.ids.toSeq)
    assert(items.rows == 40) // sanity that nothing mutated
  }

  test("lesion hooks agree with the normal path") {
    val (users, items, idx) = built(100, 70, 8, 12, conc = false, seed = 53)
    val expect = SolverTestSupport.bruteForce(users, items, 4)
    val withBlock = idx.queryAllLesion(4, shareBlocked = true)
    val without = idx.queryAllLesion(4, shareBlocked = false)
    SolverTestSupport.assertIdentical(withBlock, expect, "blocked")
    SolverTestSupport.assertIdentical(without, expect, "unblocked")
    val (counted, wBar) = idx.queryAllCounting(4, shareBlocked = false)
    SolverTestSupport.assertIdentical(counted, expect, "counting")
    assert(wBar >= 4.0 && wBar <= 70.0, s"w-bar $wBar out of range")
  }

  test("w-bar is smaller for concentrated users than diffuse ones") {
    val (_, _, idxDiff) = built(200, 150, 12, 0, conc = false, seed = 59)
    val (_, _, idxConc) = built(200, 150, 12, 0, conc = true, seed = 59)
    val (_, wDiff) = idxDiff.queryAllCounting(1, shareBlocked = false)
    val (_, wConc) = idxConc.queryAllCounting(1, shareBlocked = false)
    assert(wConc < wDiff, s"concentrated w-bar $wConc vs diffuse $wDiff")
  }

  test("with a single cluster of isotropic users and unit-norm items, " +
      "theta_b forces full scans") {
    // C=1 over isotropic users -> theta_b ~ pi -> Eq. 3 degenerates to
    // length pruning; unit norms disable that too -> every scan is full
    val users = Matrix.randn(50, 8, seed = 61)
    val raw = Matrix.randn(30, 8, seed = 62)
    val items = Matrix.fromRows((0 until 30).map { r =>
      val v = raw.row(r); val n = math.sqrt(v.map(x => x * x).sum)
      v.map(_ / n)
    })
    val idx = new Recdex(numClusters = 1, blockSize = 0).prepare(items)
      .asInstanceOf[RecdexPrepared].buildUserIndexImpl(users)
    val (_, wBar) = idx.queryAllCounting(1, shareBlocked = false)
    // theta_b is the max OBSERVED angle (slightly under pi for a finite
    // sample), so the very last items can still be cut — near-full scans
    assert(wBar >= 29.0, s"expected near-full scans, got $wBar")
  }

  test("blocked head guarantees at least B visits; walk never exceeds |I|") {
    val users = Matrix.randn(40, 6, seed = 63)
    val items = Matrix.randn(25, 6, seed = 64)
    val idx = new Recdex(numClusters = 3, blockSize = 10).prepare(items)
      .asInstanceOf[RecdexPrepared].buildUserIndexImpl(users)
    val (_, wBlocked) = idx.queryAllCounting(1, shareBlocked = true)
    val (_, wPlain) = idx.queryAllCounting(1, shareBlocked = false)
    assert(wBlocked >= 10.0 && wBlocked <= 25.0, s"blocked w-bar $wBlocked")
    assert(wPlain <= wBlocked + 1e-9, "blocking can only add visits")
  }

  test("a binding builds the user index once: serving one row costs a fraction of a bind") {
    val (users, items) = ModelZoo.tiny(2000, 300, 16, seed = 71, concentrated = true)
    val prep = new Recdex(numClusters = 8, blockSize = 16).prepare(items)
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
    /** Median CPU time of 7 runs of `body`, after 3 runs that warm it up. */
    def cpuNanos(body: => Any): Long = {
      (0 until 3).foreach(_ => body)
      val times = (0 until 7).map { _ =>
        val t0 = threads.getCurrentThreadCpuTime
        body
        threads.getCurrentThreadCpuTime - t0
      }
      times.sorted.apply(3)
    }
    val serve = prep.bind(users, 5)
    val bind = cpuNanos(prep.bind(users, 5))
    val one = cpuNanos(serve(Array(17)))
    assert(one < bind / 4, s"one row $one ns, a bind $bind ns")
  }
}
