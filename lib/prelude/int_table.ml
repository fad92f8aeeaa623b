(* Slots hold [empty] until bound.  Capacity is a power of two kept at
   least twice the binding count, so every probe run ends at an empty
   slot.  Probes are [while] loops: without flambda a local recursive
   helper would allocate a closure on every call. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* 63 - log2 capacity *)
  mutable size : int;
}

let empty = -1

(* Fibonacci hashing: multiply by an odd constant near 2^62/phi and keep
   the top bits, which mixes every key bit into the slot index (packed
   keys such as [(origin lsl 28) lor seq] differ mostly in low bits). *)
let multiplier = 0x278DDE6E5FD29F05

let home t key = (key * multiplier) lsr t.shift

let log2_capacity n =
  let bits = ref 3 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  !bits

let create n =
  let bits = log2_capacity (max 4 n) in
  {
    keys = Array.make (1 lsl bits) empty;
    vals = Array.make (1 lsl bits) 0;
    shift = 63 - bits;
    size = 0;
  }

let length t = t.size

(* Index of [key]'s slot, or of the empty slot ending its probe run. *)
let probe t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t key) in
  while
    let k = keys.(!i) in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t key =
  if key < 0 then -1
  else
    let i = probe t key in
    if t.keys.(i) = key then t.vals.(i) else -1

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let bits = 64 - t.shift in
  t.keys <- Array.make (1 lsl bits) empty;
  t.vals <- Array.make (1 lsl bits) 0;
  t.shift <- 63 - bits;
  Array.iteri
    (fun j key ->
      if key <> empty then begin
        let i = probe t key in
        t.keys.(i) <- key;
        t.vals.(i) <- old_vals.(j)
      end)
    old_keys

let find_or_add t key v =
  if key < 0 || v < 0 then invalid_arg "Int_table.find_or_add: negative";
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i)
  else begin
    let i =
      if 2 * (t.size + 1) > Array.length t.keys then begin
        grow t;
        probe t key
      end
      else i
    in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    v
  end
