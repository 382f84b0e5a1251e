package repro.mips

import repro.core.{Gemm, Matrix, TopKHeap, TopKResult}

/** Shared reference implementation + comparison helpers for solver tests. */
object SolverTestSupport {

  /** Ground truth: naive full scoring, every score of a row offered to a
    * bounded heap in id order (not `TopK.ofMatrixRow`, whose select path is
    * under test). */
  def bruteForce(users: Matrix, items: Matrix, k: Int): Array[TopKResult] = {
    val scores = Gemm.abtNaive(users, items)
    Array.tabulate(users.rows) { r =>
      val h = new TopKHeap(k)
      (0 until scores.cols).foreach(j => h.offer(scores(r, j), j))
      h.result()
    }
  }

  /** Assert `got` matches `expect` per user. Ids must agree except where the
    * scores tie within `tol` (solvers that rotate vectors differ by ~1e-12
    * in the last bits, which can swap near-equal items); scores must always
    * agree within `tol`. */
  def assertSame(got: Array[TopKResult], expect: Array[TopKResult],
                 tol: Double = 1e-8, context: String = ""): Unit = {
    assert(got.length == expect.length, s"$context: user count ${got.length} vs ${expect.length}")
    got.indices.foreach { u =>
      val g = got(u); val e = expect(u)
      assert(g.size == e.size, s"$context user $u: size ${g.size} vs ${e.size}")
      (0 until g.size).foreach { r =>
        val scoreDiff = math.abs(g.scores(r) - e.scores(r))
        assert(scoreDiff <= tol,
          s"$context user $u rank $r: score ${g.scores(r)} vs ${e.scores(r)}")
        if (g.ids(r) != e.ids(r)) {
          // only legal if this is a within-tolerance tie
          assert(scoreDiff <= tol,
            s"$context user $u rank $r: id ${g.ids(r)} vs ${e.ids(r)} without a score tie")
        }
      }
    }
  }

  /** Assert `got` equals `expect` exactly: the same ids in the same order and
    * scores with the same bits. */
  def assertIdentical(got: Array[TopKResult], expect: Array[TopKResult],
                      context: String = ""): Unit = {
    assert(got.length == expect.length, s"$context: user count ${got.length} vs ${expect.length}")
    def bits(r: TopKResult) = r.scores.toSeq.map(java.lang.Double.doubleToRawLongBits)
    got.indices.foreach { u =>
      assert(got(u).ids.toSeq == expect(u).ids.toSeq, s"$context user $u: ids")
      assert(bits(got(u)) == bits(expect(u)), s"$context user $u: score bits")
    }
  }
}
