package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class GemmSpec extends AnyFunSuite with PropSupport {

  private def maxAbsDiff(a: Matrix, b: Matrix): Double = {
    require(a.rows == b.rows && a.cols == b.cols)
    a.data.zip(b.data).map { case (x, y) => math.abs(x - y) }.max
  }

  test("abt on a hand-checked example") {
    val a = Matrix.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    val b = Matrix.fromRows(Seq(Array(5.0, 6.0), Array(7.0, 8.0), Array(9.0, 10.0)))
    val c = Gemm.abt(a, b)
    // c(i,j) = a_i . b_j
    assert(c.rows == 2 && c.cols == 3)
    assert(c(0, 0) == 17.0 && c(0, 1) == 23.0 && c(0, 2) == 29.0)
    assert(c(1, 0) == 39.0 && c(1, 1) == 53.0 && c(1, 2) == 67.0)
  }

  test("abt rejects mismatched inner dimensions") {
    assertThrows[IllegalArgumentException](
      Gemm.abt(Matrix.zeros(2, 3), Matrix.zeros(2, 4)))
  }

  /** Raw bits of every entry, so -0.0 vs 0.0 and any last-bit rounding count. */
  private def bits(m: Matrix): Seq[Long] =
    m.data.toSeq.map(java.lang.Double.doubleToRawLongBits)

  // Shapes from one entry to f=300, so every score's add order is checked
  // against the per-pair loop over long sums too.
  for {
    (m, n, k) <- Seq((1, 1, 1), (3, 5, 7), (64, 64, 4), (65, 63, 16),
                     (128, 130, 256), (100, 70, 300), (7, 200, 50))
  } test(s"abt == abtNaive for ${m}x${k} * (${n}x${k})^T") {
    val a = Matrix.randn(m, k, seed = m * 1000L + n)
    val b = Matrix.randn(n, k, seed = n * 1000L + k)
    assert(bits(Gemm.abt(a, b)) == bits(Gemm.abtNaive(a, b)))
  }

  checkProp("property: abt equals naive for random shapes") {
    Prop.forAll(Gen.choose(1, 40), Gen.choose(1, 40), Gen.choose(1, 300),
      Gen.choose(0L, 10000L)) { (m, n, k, seed) =>
      val a = Matrix.randn(m, k, seed)
      val b = Matrix.randn(n, k, seed + 1)
      bits(Gemm.abt(a, b)) == bits(Gemm.abtNaive(a, b))
    }
  }

  test("ab (plain orientation) on a hand-checked example") {
    val a = Matrix.fromRows(Seq(Array(1.0, 2.0)))
    val b = Matrix.fromRows(Seq(Array(3.0, 4.0), Array(5.0, 6.0)))
    val c = Gemm.ab(a, b)
    assert(c.rows == 1 && c.cols == 2)
    assert(c(0, 0) == 13.0 && c(0, 1) == 16.0)
  }

  checkProp("property: ab(a, b^T-as-rows) consistent with abt") {
    Prop.forAll(Gen.choose(1, 15), Gen.choose(1, 15), Gen.choose(1, 15),
      Gen.choose(0L, 10000L)) { (m, n, k, seed) =>
      val a = Matrix.randn(m, k, seed)
      val b = Matrix.randn(n, k, seed + 1)
      // ab with explicit transpose of b must equal abt
      val bT = Matrix.tabulate(k, n)((i, j) => b(j, i))
      maxAbsDiff(Gemm.ab(a, bT), Gemm.abt(a, b)) < 1e-9
    }
  }

  test("gram is A^T A, symmetric") {
    val a = Matrix.randn(20, 5, seed = 9)
    val g = Gemm.gram(a)
    assert(g.rows == 5 && g.cols == 5)
    // reference: g(i,j) = sum_r a(r,i)*a(r,j)
    for (i <- 0 until 5; j <- 0 until 5) {
      var s = 0.0
      (0 until 20).foreach(r => s += a(r, i) * a(r, j))
      assert(math.abs(g(i, j) - s) < 1e-9, s"g($i,$j)")
      assert(g(i, j) == g(j, i), "symmetry")
    }
  }

  test("blocked kernel is not slower than naive at bench-like sizes (sanity)") {
    val a = Matrix.randn(256, 64, seed = 5)
    val b = Matrix.randn(1024, 64, seed = 6)
    // warm both paths
    Gemm.abt(a, b); Gemm.abtNaive(a, b)
    val t0 = System.nanoTime(); Gemm.abt(a, b); val blocked = System.nanoTime() - t0
    val t1 = System.nanoTime(); Gemm.abtNaive(a, b); val naive = System.nanoTime() - t1
    // Only a sanity check (JIT noise): blocked must be within 3x of naive.
    assert(blocked < naive * 3, s"blocked=$blocked naive=$naive")
  }
}
