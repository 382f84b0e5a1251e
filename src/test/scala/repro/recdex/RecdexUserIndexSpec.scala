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

  private def built(nu: Int, ni: Int, f: Int, b: Int, conc: Boolean, seed: Long) = {
    val (users, items) = ModelZoo.tiny(nu, ni, f, seed, concentrated = conc)
    val prep = new Recdex(numClusters = 4, blockSize = b).prepare(items)
      .asInstanceOf[RecdexPrepared]
    (users, items, prep.buildUserIndexImpl(users))
  }

  for (conc <- Seq(false, true); b <- Seq(0, 16)) {
    test(s"queryAll matches brute force (concentrated=$conc blockSize=$b)") {
      val (users, items, idx) = built(150, 90, 10, b, conc, seed = 41)
      val expect = SolverTestSupport.bruteForce(users, items, 5)
      SolverTestSupport.assertSame(idx.queryAll(5).map(identity), expect, 1e-9)
    }

    test(s"querySubset matches queryAll rows (concentrated=$conc blockSize=$b)") {
      val (_, _, idx) = built(150, 90, 10, b, conc, seed = 43)
      val all = idx.queryAll(4)
      val rows = Array(3, 17, 42, 149, 0)
      val sub = idx.querySubset(rows, 4)
      rows.indices.foreach { i =>
        assert(sub(i).ids.toSeq == all(rows(i)).ids.toSeq, s"row ${rows(i)}")
        assert(sub(i).scores.toSeq == all(rows(i)).scores.toSeq)
      }
    }
  }

  checkProp("property: querySubset equals queryAll at random subsets, in ids and score bits",
      minTests = 40) {
    val indexes = for (conc <- Seq(false, true); b <- Seq(0, 16))
      yield built(150, 90, 10, b, conc, seed = 45)._3
    val alls = indexes.map(_.queryAll(4))
    val gen = for {
      which <- Gen.choose(0, indexes.length - 1)
      size <- Gen.choose(0, 150)
      seed <- Gen.long
    } yield (which, new scala.util.Random(seed).shuffle((0 until 150).toVector).take(size).toArray)
    Prop.forAll(gen) { case (which, rows) =>
      val sub = indexes(which).querySubset(rows, 4)
      sub.length == rows.length && rows.indices.forall { i =>
        val all = alls(which)(rows(i))
        sub(i).ids.toSeq == all.ids.toSeq &&
          sub(i).scores.map(java.lang.Double.doubleToRawLongBits).toSeq ==
            all.scores.map(java.lang.Double.doubleToRawLongBits).toSeq
      }
    }
  }

  test("querySubset with a single row") {
    val (users, items, idx) = built(60, 40, 6, 8, conc = true, seed = 47)
    val sub = idx.querySubset(Array(33), 3)
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
    SolverTestSupport.assertSame(withBlock, expect, 1e-9, "blocked")
    SolverTestSupport.assertSame(without, expect, 1e-9, "unblocked")
    val (counted, wBar) = idx.queryAllCounting(4, shareBlocked = false)
    SolverTestSupport.assertSame(counted, expect, 1e-9, "counting")
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

  test("bound order: bound descending, then id ascending") {
    val bounds = Array(1.0, 2.0, 1.0, 0.0, -0.0, 2.0, -1.0, 0.0)
    assert(RecdexPrepared.boundOrder(bounds).toSeq == Seq(1, 5, 0, 2, 3, 7, 4, 6))
    // same order as the boxed tuple sort, on tie-heavy and on distinct bounds
    val rng = new scala.util.Random(67)
    Seq(0, 1, 2, 3, 17, 64, 100, 1000).foreach { n =>
      val ties = Array.fill(n)(rng.nextInt(4) - 1.5)
      val distinct = Array.fill(n)(rng.nextGaussian())
      Seq(ties, distinct).foreach { b =>
        val expect = Array.range(0, n).sortBy(i => (-b(i), i))
        assert(RecdexPrepared.boundOrder(b).toSeq == expect.toSeq, s"n=$n")
      }
    }
  }
}
