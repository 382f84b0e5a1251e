package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class TopKSpec extends AnyFunSuite with PropSupport {

  /** Reference implementation: full sort with the repo-wide tie-break. */
  private def refTopK(scores: Seq[Double], k: Int): Seq[(Int, Double)] =
    scores.zipWithIndex
      .map { case (s, i) => (i, s) }
      .sortBy { case (i, s) => (-s, i) }
      .take(k)

  test("heap rejects k < 1") {
    assertThrows[IllegalArgumentException](new TopKHeap(0))
  }

  test("keeps the k best with deterministic order") {
    val scores = Seq(5.0, 1.0, 3.0, 9.0, 7.0)
    val h = new TopKHeap(3)
    scores.zipWithIndex.foreach { case (s, i) => h.offer(s, i) }
    val r = h.result()
    assert(r.ids.toSeq == Seq(3, 4, 0))
    assert(r.scores.toSeq == Seq(9.0, 7.0, 5.0))
  }

  test("ties broken by smaller id") {
    val h = new TopKHeap(2)
    h.offer(1.0, 5); h.offer(1.0, 2); h.offer(1.0, 9)
    val r = h.result()
    assert(r.ids.toSeq == Seq(2, 5))
  }

  test("tie at the boundary replaces a larger id") {
    val h = new TopKHeap(1)
    h.offer(1.0, 7)
    h.offer(1.0, 3) // equal score, smaller id must win
    assert(h.result().ids.toSeq == Seq(3))
  }

  test("fewer offers than k returns all, sorted") {
    val h = new TopKHeap(10)
    h.offer(2.0, 0); h.offer(5.0, 1)
    val r = h.result()
    assert(r.ids.toSeq == Seq(1, 0))
    assert(r.size == 2)
  }

  test("minScore / isFull semantics") {
    val h = new TopKHeap(2)
    assert(!h.isFull)
    h.offer(1.0, 0); h.offer(2.0, 1)
    assert(h.isFull && h.minScore == 1.0)
  }

  test("negative and infinite scores handled") {
    val h = new TopKHeap(2)
    h.offer(Double.NegativeInfinity, 0)
    h.offer(-5.0, 1)
    h.offer(Double.PositiveInfinity, 2)
    val r = h.result()
    assert(r.ids.toSeq == Seq(2, 1))
  }

  test("TopK.ofMatrixRow matches reference on a one-row matrix") {
    val scores = Array(3.0, 3.0, 1.0, 8.0, 2.0, 8.0)
    val got = TopK.ofMatrixRow(Matrix.fromRows(Seq(scores)), 0, 4)
    assert(got.toPairs == refTopK(scores.toIndexedSeq, 4))
  }

  checkProp("property: heap equals sort-based reference") {
    Prop.forAll(
      Gen.nonEmptyListOf(Gen.chooseNum(-100.0, 100.0)),
      Gen.choose(1, 12)) { (scores, k) =>
      val h = new TopKHeap(k)
      scores.zipWithIndex.foreach { case (s, i) => h.offer(s, i) }
      h.result().toPairs == refTopK(scores, k)
    }
  }

  checkProp("property: heap with duplicate scores equals reference") {
    Prop.forAll(Gen.nonEmptyListOf(Gen.choose(0, 5)), Gen.choose(1, 8)) { (ints, k) =>
      val scores = ints.map(_.toDouble)
      val h = new TopKHeap(k)
      scores.zipWithIndex.foreach { case (s, i) => h.offer(s, i) }
      h.result().toPairs == refTopK(scores, k)
    }
  }
}
