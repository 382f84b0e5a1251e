package repro.linalg

import repro.core.{Gemm, Matrix}

/** Thin SVD of a tall matrix A (n x f, n >= f) via the Gram-matrix route.
  *
  * A = U S V^T with V the eigenvectors of A^T A and S^2 its eigenvalues.
  * We only need V and S for FEXIPRO's S-transform: rotating every vector by
  * V preserves inner products exactly (V is orthonormal) while concentrating
  * vector energy in the leading coordinates (ordered by singular value),
  * which is what makes incremental prefix pruning effective.
  */
object Svd {

  final case class ThinSvd(singularValues: Array[Double], v: Matrix) {
    /** Rotate a vector into the SVD basis: x' = V^T x. */
    def rotate(x: Array[Double]): Array[Double] = {
      val f = v.rows
      require(x.length == f, s"dim mismatch ${x.length} vs $f")
      val out = new Array[Double](f)
      var j = 0
      while (j < f) {
        var s = 0.0
        var i = 0
        while (i < f) { s += v(i, j) * x(i); i += 1 }
        out(j) = s
        j += 1
      }
      out
    }

    /** Rotate every row of a matrix: A' = A V, row r being `rotate(a.row(r))`. */
    def rotateRows(a: Matrix): Matrix =
      new Matrix(a.rows, v.cols, Array.range(0, a.rows).flatMap(r => rotate(a.row(r))))
  }

  /** Thin SVD of `a` via Jacobi on the f x f Gram matrix. */
  def ofGram(a: Matrix): ThinSvd = {
    val g = Gemm.gram(a)
    val eig = Eigen.symmetric(g)
    val sv = eig.values.map(ev => math.sqrt(math.max(ev, 0.0)))
    ThinSvd(sv, eig.vectors)
  }
}
