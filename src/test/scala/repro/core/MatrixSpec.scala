package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class MatrixSpec extends AnyFunSuite with PropSupport {

  test("apply/set round-trip") {
    val m = Matrix.zeros(3, 4)
    m.set(1, 2, 7.5)
    assert(m(1, 2) == 7.5)
    assert(m(0, 0) == 0.0)
  }

  test("constructor rejects wrong data length") {
    assertThrows[IllegalArgumentException](new Matrix(2, 3, new Array[Double](5)))
  }

  test("tabulate lays out row-major") {
    val m = Matrix.tabulate(2, 3)((r, c) => r * 10 + c)
    assert(m.data.toSeq == Seq(0.0, 1.0, 2.0, 10.0, 11.0, 12.0))
  }

  test("row returns a copy") {
    val m = Matrix.tabulate(2, 2)((r, c) => r + c)
    val row = m.row(0)
    row(0) = 99
    assert(m(0, 0) == 0.0)
  }

  test("rowNorm matches explicit computation") {
    val m = Matrix.fromRows(Seq(Array(3.0, 4.0), Array(0.0, 0.0)))
    assert(math.abs(m.rowNorm(0) - 5.0) < 1e-12)
    assert(m.rowNorm(1) == 0.0)
  }

  test("rowDot matches explicit computation") {
    val m = Matrix.fromRows(Seq(Array(1.0, 2.0, 3.0)))
    assert(m.rowDot(0, Array(4.0, 5.0, 6.0)) == 32.0)
  }

  test("sliceRows extracts contiguous rows") {
    val m = Matrix.tabulate(4, 2)((r, c) => r * 2 + c)
    val s = m.sliceRows(1, 3)
    assert(s.rows == 2 && s.cols == 2)
    assert(s.data.toSeq == Seq(2.0, 3.0, 4.0, 5.0))
  }

  test("sliceRows rejects bad ranges") {
    val m = Matrix.zeros(3, 1)
    assertThrows[IllegalArgumentException](m.sliceRows(2, 1))
    assertThrows[IllegalArgumentException](m.sliceRows(0, 4))
  }

  test("selectRows picks arbitrary rows in order") {
    val m = Matrix.tabulate(4, 2)((r, c) => r * 2 + c)
    val s = m.selectRows(Array(3, 0))
    assert(s.data.toSeq == Seq(6.0, 7.0, 0.0, 1.0))
  }

  test("fromRows rejects ragged input") {
    assertThrows[IllegalArgumentException](
      Matrix.fromRows(Seq(Array(1.0), Array(1.0, 2.0))))
  }

  test("copy is independent") {
    val m = Matrix.zeros(2, 2)
    val c = m.copy()
    c.set(0, 0, 5.0)
    assert(m(0, 0) == 0.0)
  }

  test("randn is deterministic in the seed") {
    val a = Matrix.randn(5, 3, seed = 7)
    val b = Matrix.randn(5, 3, seed = 7)
    assert(a.data.toSeq == b.data.toSeq)
    val c = Matrix.randn(5, 3, seed = 8)
    assert(a.data.toSeq != c.data.toSeq)
  }

  checkProp("property: rowNorms agree with per-row rowNorm") {
    Prop.forAll(Gen.choose(1, 8), Gen.choose(1, 8), Gen.choose(0L, 1000L)) { (r, c, seed) =>
      val m = Matrix.randn(r, c, seed)
      val norms = m.rowNorms
      (0 until r).forall(i => norms(i) == m.rowNorm(i))
    }
  }

  checkProp("property: selectRows(identity) is a no-op") {
    Prop.forAll(Gen.choose(1, 10), Gen.choose(1, 5), Gen.choose(0L, 1000L)) { (r, c, seed) =>
      val m = Matrix.randn(r, c, seed)
      val s = m.selectRows(Array.tabulate(r)(identity))
      s.data.toSeq == m.data.toSeq
    }
  }
}
