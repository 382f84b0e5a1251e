package repro.core

/** A prepared (built) MIPS index or execution strategy over a fixed item set.
  *
  * The entrypoints mirror the paper's query settings:
  *   - `query` serves one user (the point setting);
  *   - `bind` fixes a block of users and serves any of its rows, by index
  *     (the batch setting, and what RECOPT times and serves with, §4.1);
  *   - `queryBatch` serves every row of a block through `bind`.
  *
  * A solver implements `query` and, if it serves a block better than user by
  * user, overrides `bind`; no solver overrides `queryBatch`. A binding may be
  * called from several threads at once (two Spark actions can serve the same
  * cached block), so it keeps no scratch of its own across calls.
  *
  * All implementations are EXACT: `queryBatch(u, k)` must return brute
  * force's ids in (score desc, id asc) order. MM, LEMP and RECDEX return its
  * score bits too; FEXIPRO's SVD rotation is held to a score tolerance
  * (tested in `ExactnessSpec`).
  */
trait PreparedMips extends Serializable {
  /** Exact top-K for a single user vector. */
  def query(user: Array[Double], userId: Int, k: Int): TopKResult

  /** Exact top-K for every row of `users`; result i corresponds to row i. */
  def queryBatch(users: Matrix, k: Int): Array[TopKResult] =
    bind(users, k)(Array.range(0, users.rows))

  /** Binds the strategy to one fixed user `block`: the returned function
    * serves rows of the block, by index, result i for `rows(i)`, with what
    * the binding built (the paper's per-block construction cost C_I; RECDEX
    * builds its user index here). By default it builds nothing and serves
    * each row with `query`. */
  def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] =
    rows => rows.map(r => query(block.row(r), r, k))
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
