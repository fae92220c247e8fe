(** Mutable fixed-width bit vectors, the currency of the dataflow
    analyses. Indices are dense ids (temp ids, block ids, ...). *)

type t

val create : int -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val clear : t -> unit
val copy : t -> t
val assign : dst:t -> src:t -> unit

(** Destructive set operations; each returns [true] when [dst] changed. *)

val union_into : dst:t -> src:t -> bool
val inter_into : dst:t -> src:t -> bool
val diff_into : dst:t -> src:t -> bool

val equal : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit

(** [iter_ranked f a ~within ~also] calls [f i (rank within i) (rank also i)]
    for every [i] of [a ∩ within], in increasing order, where [rank s i] is
    the number of elements of [s] below [i]: the position of [i] in
    {!iter}'s order over [within], and over [also] when [i] is in it.
    Ranks come from a word-wise popcount, so a walk costs O(words up to
    the last element) plus O(1) per element, however large [within] and
    [also] are. Raises [Invalid_argument] unless all three have one
    width. *)
val iter_ranked : (int -> int -> int -> unit) -> t -> within:t -> also:t -> unit
val elements : t -> int list
val of_list : int -> int list -> t
