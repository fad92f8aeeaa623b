(** Flat open-addressing hash table from non-negative [int] keys to
    non-negative [int] values.

    Two parallel int arrays and linear probing: no bucket cells, no
    polymorphic hashing, and no allocation on lookup or on insertion
    (except when the table doubles).  Built for interning dense ids —
    packet keys, [(packet, node)] slots — on hot paths, where a
    polymorphic [Hashtbl] pays a cons cell per binding and an option per
    lookup.  There is no removal.

    Reads ({!find}, {!length}) never write, so once filling is done the
    table may be read from several domains at once. *)

type t

val create : int -> t
(** [create n] is an empty table sized to hold [n] bindings without
    growing (it grows on demand past that). *)

val length : t -> int
(** Number of bindings. *)

val find : t -> int -> int
(** [find t key] is the value bound to [key], or [-1] when [key] is
    absent (or negative). *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t key v] is the value bound to [key]; when [key] is
    absent it is first bound to [v], so the result is [v] exactly when the
    binding is new.
    @raise Invalid_argument if [key] or [v] is negative. *)
