(** Binary min-heap of non-negative [int] ids, ordered lexicographically
    by [(priority, tie)].

    Each id's priority is read from a [float array] fixed at creation, so
    no float crosses a call boundary and nothing is boxed.  Entries live
    in three parallel flat arrays (priority, tie, id); {!push} and {!pop}
    allocate nothing once the arrays are large enough.

    The order is total when no two entries share both priority and tie:
    then the pop sequence depends only on the pushed entries, never on
    heap internals.  A FIFO among equal priorities is a running counter
    passed as [tie]; a smallest-id-first order is [~tie:id]. *)

type t

val create : float array -> t
(** [create priorities] is an empty heap in which id [i] has priority
    [priorities.(i)], read when [i] is pushed.  It starts with room for
    16 entries and doubles on demand. *)

val push : t -> tie:int -> int -> unit
(** [push t ~tie id] inserts [id] with key [(priorities.(id), tie)].
    @raise Invalid_argument if [id] is outside the priority array. *)

val pop : t -> int
(** Remove and return the id with the smallest key; [-1] when empty. *)
