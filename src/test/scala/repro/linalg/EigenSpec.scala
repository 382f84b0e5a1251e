package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.{Gemm, Matrix}

class EigenSpec extends AnyFunSuite with PropSupport {

  private def symRandom(n: Int, seed: Long): Matrix = {
    val a = Matrix.randn(n, n, seed)
    Matrix.tabulate(n, n)((i, j) => (a(i, j) + a(j, i)) / 2)
  }

  test("rejects non-square input") {
    assertThrows[IllegalArgumentException](Eigen.symmetric(Matrix.zeros(2, 3)))
  }

  test("diagonal matrix eigenvalues are the diagonal, sorted desc") {
    val d = Matrix.tabulate(3, 3)((i, j) => if (i == j) Seq(2.0, 5.0, -1.0)(i) else 0.0)
    val r = Eigen.symmetric(d)
    assert(r.values.toSeq == Seq(5.0, 2.0, -1.0))
  }

  test("2x2 known eigenvalues") {
    // [[2,1],[1,2]] has eigenvalues 3 and 1
    val m = Matrix.fromRows(Seq(Array(2.0, 1.0), Array(1.0, 2.0)))
    val r = Eigen.symmetric(m)
    assert(math.abs(r.values(0) - 3.0) < 1e-10)
    assert(math.abs(r.values(1) - 1.0) < 1e-10)
  }

  for (n <- Seq(2, 5, 10, 25, 50)) test(s"reconstruction A = V diag(l) V^T for n=$n") {
    val a = symRandom(n, seed = n)
    val r = Eigen.symmetric(a)
    val v = r.vectors
    // recon(i,j) = sum_k l_k v(i,k) v(j,k)
    var maxErr = 0.0
    for (i <- 0 until n; j <- 0 until n) {
      var s = 0.0
      (0 until n).foreach(k => s += r.values(k) * v(i, k) * v(j, k))
      maxErr = math.max(maxErr, math.abs(s - a(i, j)))
    }
    assert(maxErr < 1e-8, s"reconstruction error $maxErr")
  }

  for (n <- Seq(3, 12, 40)) test(s"eigenvectors are orthonormal for n=$n") {
    val r = Eigen.symmetric(symRandom(n, seed = 100 + n))
    val v = r.vectors
    val vtv = Gemm.gram(v)
    var maxErr = 0.0
    for (i <- 0 until n; j <- 0 until n) {
      val expect = if (i == j) 1.0 else 0.0
      maxErr = math.max(maxErr, math.abs(vtv(i, j) - expect))
    }
    assert(maxErr < 1e-9, s"orthonormality error $maxErr")
  }

  test("trace is preserved (sum of eigenvalues)") {
    val a = symRandom(20, seed = 77)
    val r = Eigen.symmetric(a)
    val trace = (0 until 20).map(i => a(i, i)).sum
    assert(math.abs(r.values.sum - trace) < 1e-8)
  }

  checkProp("property: eigenvalues sorted descending", minTests = 20) {
    Prop.forAll(Gen.choose(2, 15), Gen.choose(0L, 500L)) { (n, seed) =>
      val r = Eigen.symmetric(symRandom(n, seed))
      r.values.toSeq.sliding(2).forall { case Seq(x, y) => x >= y - 1e-12; case _ => true }
    }
  }
}

class SvdSpec extends AnyFunSuite with PropSupport {

  test("rotation preserves inner products exactly (orthonormal V)") {
    val items = Matrix.randn(50, 8, seed = 3)
    val svd = Svd.ofGram(items)
    val u = Array.tabulate(8)(i => i * 0.5 - 2)
    val v = Array.tabulate(8)(i => 1.0 - i * 0.3)
    val dotBefore = u.zip(v).map { case (a, b) => a * b }.sum
    val ru = svd.rotate(u); val rv = svd.rotate(v)
    val dotAfter = ru.zip(rv).map { case (a, b) => a * b }.sum
    assert(math.abs(dotBefore - dotAfter) < 1e-9)
  }

  test("rotateRows is row-wise rotate") {
    val items = Matrix.randn(20, 6, seed = 4)
    val svd = Svd.ofGram(items)
    val rotated = svd.rotateRows(items)
    assert(rotated.rows == 20 && rotated.cols == 6)
    (0 until 20).foreach { r =>
      val expect = svd.rotate(items.row(r)).map(java.lang.Double.doubleToRawLongBits)
      assert(rotated.row(r).map(java.lang.Double.doubleToRawLongBits).toSeq == expect.toSeq, s"row $r")
    }
  }

  test("singular values: sum of squares equals Frobenius norm squared") {
    val a = Matrix.randn(30, 7, seed = 5)
    val svd = Svd.ofGram(a)
    val fro2 = a.data.map(x => x * x).sum
    val sv2 = svd.singularValues.map(s => s * s).sum
    assert(math.abs(fro2 - sv2) < 1e-7 * fro2)
  }

  test("energy concentrates in leading coordinates after rotation") {
    // Construct items with strong low-rank structure: the rotated matrix
    // must carry most energy in its first coordinates.
    val base = Matrix.randn(100, 2, seed = 6)
    val lift = Matrix.randn(2, 10, seed = 7)
    val items0 = Gemm.abt(base, Matrix.tabulate(10, 2)((j, p) => lift(p, j)))
    val noise = Matrix.randn(100, 10, seed = 8, sigma = 0.01)
    val items = Matrix.tabulate(100, 10)((i, j) => items0(i, j) + noise(i, j))
    val rotated = Svd.ofGram(items).rotateRows(items)
    val colEnergy = Array.tabulate(10) { j =>
      (0 until 100).map(i => rotated(i, j) * rotated(i, j)).sum
    }
    val total = colEnergy.sum
    assert((colEnergy(0) + colEnergy(1)) / total > 0.95,
      s"leading-2 energy=${(colEnergy(0) + colEnergy(1)) / total}")
  }

  checkProp("property: rotation preserves norms", minTests = 25) {
    Prop.forAll(Gen.choose(2, 12), Gen.choose(5, 40), Gen.choose(0L, 300L)) { (f, n, seed) =>
      val items = Matrix.randn(n, f, seed)
      val svd = Svd.ofGram(items)
      val x = Matrix.randn(1, f, seed + 9).row(0)
      val before = math.sqrt(x.map(v => v * v).sum)
      val rx = svd.rotate(x)
      val after = math.sqrt(rx.map(v => v * v).sum)
      math.abs(before - after) < 1e-9
    }
  }
}
