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

  /** Every score of the row offered to a heap in id order: the result the
    * selector must return. */
  private def heapOracle(row: Array[Double], k: Int): TopKResult = {
    val h = new TopKHeap(k)
    row.indices.foreach(j => h.offer(row(j), j))
    h.result()
  }

  private def sameBits(a: TopKResult, b: TopKResult): Boolean =
    a.ids.sameElements(b.ids) &&
      a.scores.map(java.lang.Double.doubleToRawLongBits)
        .sameElements(b.scores.map(java.lang.Double.doubleToRawLongBits))

  /** A row of one kind: random, integer ties, all equal, ±0.0 mixes, with
    * ±Inf or NaN, a range at or below the smallest normal, a range that
    * overflows or nearly does, a range of a few ulps, and a few outliers far
    * above a block of scores that then shares the bottom bucket. */
  private def rowOf(n: Int): Gen[Array[Double]] = {
    val tiny = java.lang.Double.MIN_NORMAL
    val values: Seq[Gen[Double]] = Seq(
      Gen.chooseNum(-100.0, 100.0),
      Gen.choose(-3, 3).map(_.toDouble),
      Gen.frequency(4 -> Gen.oneOf(0.0, -0.0), 1 -> Gen.oneOf(1.0, -1.0, 0.5)),
      Gen.frequency(12 -> Gen.chooseNum(-100.0, 100.0),
        1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN)),
      Gen.choose(-1000L, 1000L).map(_ * Double.MinPositiveValue),
      Gen.choose(-1000, 1000).map(_ * tiny),
      Gen.chooseNum(-1.0, 1.0).map(_ * Double.MaxValue),
      Gen.chooseNum(0.0, 1.0).map(_ * Double.MaxValue),
      Gen.choose(0, 40).map(i => 1.0 + i * math.ulp(1.0)),
      Gen.frequency(40 -> Gen.chooseNum(0.0, 1.0), 1 -> Gen.chooseNum(1e6, 2e6)))
    Gen.oneOf(
      Gen.chooseNum(-100.0, 100.0).map(c => Array.fill(n)(c)),
      Gen.oneOf(values).flatMap(v => Gen.containerOfN[Array, Double](n, v)))
  }

  checkProp("property: ofMatrixRow and the bucket select return the heap scan's ids and score " +
      "bits on random, tie-heavy, all-equal, signed-zero, non-finite, subnormal and " +
      "near-overflow rows, at K = 1, K >= |I| and on both sides of the crossover", minTests = 600) {
    val case_ = for {
      n <- Gen.frequency(3 -> Gen.choose(1, 300), 1 -> Gen.choose(300, 2000))
      row <- rowOf(n)
      k <- Gen.oneOf(Gen.const(1), Gen.choose(1, math.max(1, n / TopK.SelectRowsPerK)),
        Gen.choose(1, n + 1), Gen.oneOf(n, n + 1))
    } yield (row, k)
    Prop.forAll(case_) { case (row, k) =>
      val expect = heapOracle(row, k)
      val m = Matrix.fromRows(Seq(row.reverse, row))
      sameBits(TopK.ofMatrixRow(m, 1, k), expect) &&
        sameBits(TopK.bucketSelect(m, 1, k), expect) &&
        sameBits(TopK.ofMatrixRow(m, 0, k), heapOracle(row.reverse, k))
    }
  }

  test("ofMatrixRow and the bucket select reject k < 1 with the heap's message") {
    val m = Matrix.fromRows(Seq(Array(1.0, 2.0, 3.0)))
    for (select <- Seq[(Matrix, Int, Int) => TopKResult](TopK.ofMatrixRow, TopK.bucketSelect)) {
      val e = intercept[IllegalArgumentException](select(m, 0, 0))
      assert(e.getMessage.contains("k must be >= 1, got 0"), e.getMessage)
    }
  }
}
