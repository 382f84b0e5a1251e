package repro.core

/** A prepared (built) MIPS index or execution strategy over a fixed item set.
  *
  * The two entrypoints mirror the paper's query settings:
  *   - `query` serves one user (the point setting; what RECOPT times per-user
  *     for its t-test early stop);
  *   - `queryBatch` serves a block of users at once (the batch setting; the
  *     blocked strategies — brute-force MM and RECDEX's shared head — only
  *     reach full hardware efficiency here).
  *
  * All implementations are EXACT: `queryBatch(u, k)` must equal brute force
  * up to floating-point rotation error (tested in `ExactnessSpec`).
  */
trait PreparedMips extends Serializable {
  /** Exact top-K for a single user vector. */
  def query(user: Array[Double], userId: Int, k: Int): TopKResult

  /** Exact top-K for every row of `users`; result i corresponds to row i. */
  def queryBatch(users: Matrix, k: Int): Array[TopKResult] = {
    val out = new Array[TopKResult](users.rows)
    var r = 0
    while (r < users.rows) { out(r) = query(users.row(r), r, k); r += 1 }
    out
  }

  /** True if the strategy only pays off on batches (RECOPT then skips the
    * per-user t-test and times the full sample, per §4.1). */
  def batchOnly: Boolean = false
}

/** A MIPS serving strategy: builds a [[PreparedMips]] from the item matrix.
  *
  * `prepare` carries all item-side index-construction cost (C_I in the
  * paper's §4.2); RECOPT measures it separately from query cost.
  */
trait MipsSolver extends Serializable {
  def name: String
  def prepare(items: Matrix): PreparedMips
}

/** A strategy whose index is built over the *query users* as well as the
  * items (RECDEX: k-means over users + per-cluster sorted lists). The local
  * `RecOpt.serveAll` builds the user index once over the full population
  * (construction cost), then times only the walk on a sample — matching the
  * paper's C_I/Q_I accounting. */
trait UserIndexedMips { this: PreparedMips =>
  def buildUserIndex(users: Matrix): UserIndex
}

/** A user-side index built for one fixed user matrix. */
trait UserIndex extends Serializable {
  /** Exact top-K for a subset of the indexed users; result i corresponds to
    * `rows(i)` (row indices into the matrix the index was built over). */
  def querySubset(rows: Array[Int], k: Int): Array[TopKResult]
}
