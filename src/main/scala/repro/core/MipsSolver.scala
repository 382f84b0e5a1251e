package repro.core

/** A prepared (built) MIPS index or execution strategy over a fixed item set.
  *
  * The two entrypoints mirror the paper's query settings:
  *   - `query` serves one user (the point setting);
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
  * items (RECDEX: k-means over users + per-cluster sorted lists). RECOPT
  * (`RecOpt.timeBlock`, locally and on each Spark partition) builds the user
  * index once over the whole block as a per-block construction cost, times
  * only the walk, in chunks of the block's sample, and serves the rest of the
  * block from the same index — the paper's C_I/Q_I accounting. Binding a
  * candidate to the block is the one place RECOPT looks at this trait. */
trait UserIndexedMips extends PreparedMips {
  def buildUserIndex(users: Matrix): UserIndex
}

/** A user-side index built for one fixed user matrix. */
trait UserIndex extends Serializable {
  /** Exact top-K for a subset of the indexed users; result i corresponds to
    * `rows(i)` (row indices into the matrix the index was built over). */
  def querySubset(rows: Array[Int], k: Int): Array[TopKResult]
}
