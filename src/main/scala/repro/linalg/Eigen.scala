package repro.linalg

import repro.core.Matrix

/** Symmetric eigendecomposition via the cyclic Jacobi method.
  *
  * Used by [[Svd]] on the f x f Gram matrix of the item matrix (f <= ~200 in
  * every model we serve), where Jacobi is simple, numerically robust, and
  * plenty fast. Returns eigenvalues in descending order with matching
  * orthonormal eigenvectors (as columns).
  */
object Eigen {

  final case class EigenResult(values: Array[Double], vectors: Matrix)

  /** Decompose a symmetric matrix `a` (not modified). */
  def symmetric(a: Matrix): EigenResult = {
    require(a.rows == a.cols, s"not square: ${a.rows} x ${a.cols}")
    val n = a.rows
    val m = a.copy()
    // v starts as identity; accumulates the rotations.
    val v = Matrix.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)

    def offDiagNorm(): Double = {
      var s = 0.0
      var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) { val x = m(i, j); s += 2 * x * x; j += 1 }
        i += 1
      }
      math.sqrt(s)
    }

    val scale = {
      var s = 0.0
      var i = 0
      while (i < n * n) { s = math.max(s, math.abs(m.data(i))); i += 1 }
      math.max(s, 1e-300)
    }

    // sweep until the off-diagonal norm is below 1e-12 x max |entry| x n,
    // giving up after 64 sweeps
    var sweep = 0
    while (sweep < 64 && offDiagNorm() > 1e-12 * scale * n) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = m(p, q)
          if (math.abs(apq) > 1e-300) {
            val app = m(p, p); val aqq = m(q, q)
            val tau = (aqq - app) / (2.0 * apq)
            val t =
              if (tau >= 0) 1.0 / (tau + math.sqrt(1.0 + tau * tau))
              else 1.0 / (tau - math.sqrt(1.0 + tau * tau))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val s = t * c
            // apply the rotation G(p,q,theta) on both sides of m
            var i = 0
            while (i < n) {
              val mip = m(i, p); val miq = m(i, q)
              m.set(i, p, c * mip - s * miq)
              m.set(i, q, s * mip + c * miq)
              i += 1
            }
            i = 0
            while (i < n) {
              val mpi = m(p, i); val mqi = m(q, i)
              m.set(p, i, c * mpi - s * mqi)
              m.set(q, i, s * mpi + c * mqi)
              i += 1
            }
            // accumulate into v (column rotation)
            i = 0
            while (i < n) {
              val vip = v(i, p); val viq = v(i, q)
              v.set(i, p, c * vip - s * viq)
              v.set(i, q, s * vip + c * viq)
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      sweep += 1
    }

    // sort eigenpairs by descending eigenvalue
    val order = Array.tabulate(n)(identity).sortBy(i => -m(i, i))
    val values = order.map(i => m(i, i))
    val vectors = Matrix.tabulate(n, n)((i, j) => v(i, order(j)))
    EigenResult(values, vectors)
  }
}
