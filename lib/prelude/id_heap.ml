(* Sifts move a hole instead of swapping, and are [while] loops so that no
   closure or float box is allocated per call. *)

type t = {
  priorities : float array;
  mutable prio : float array;
  mutable tie : int array;
  mutable id : int array;
  mutable size : int;
}

let initial_capacity = 16

let create priorities =
  {
    priorities;
    prio = Array.make initial_capacity 0.;
    tie = Array.make initial_capacity 0;
    id = Array.make initial_capacity 0;
    size = 0;
  }

let grow t =
  let capacity = 2 * Array.length t.id in
  let prio = Array.make capacity 0. in
  let tie = Array.make capacity 0 in
  let id = Array.make capacity 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.tie 0 tie 0 t.size;
  Array.blit t.id 0 id 0 t.size;
  t.prio <- prio;
  t.tie <- tie;
  t.id <- id

(* Copy the entry at slot [src] into slot [dst]. *)
let move t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.tie.(dst) <- t.tie.(src);
  t.id.(dst) <- t.id.(src)

let push t ~tie id =
  let p = t.priorities.(id) in
  if t.size = Array.length t.id then grow t;
  let hole = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pp = t.prio.(parent) in
    if p < pp || (p = pp && tie < t.tie.(parent)) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else rising := false
  done;
  t.prio.(!hole) <- p;
  t.tie.(!hole) <- tie;
  t.id.(!hole) <- id

(* Whether slot [a]'s entry orders before slot [b]'s. *)
let before t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa < pb || (pa = pb && t.tie.(a) < t.tie.(b))

let pop t =
  if t.size = 0 then -1
  else begin
    let top = t.id.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      (* Sift the last entry down from the root. *)
      let p = t.prio.(n) and tie = t.tie.(n) in
      let hole = ref 0 in
      let sinking = ref true in
      while !sinking do
        let l = (2 * !hole) + 1 in
        if l >= n then sinking := false
        else begin
          let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
          let pc = t.prio.(c) in
          if pc < p || (pc = p && t.tie.(c) < tie) then begin
            move t ~src:c ~dst:!hole;
            hole := c
          end
          else sinking := false
        end
      done;
      move t ~src:n ~dst:!hole
    end;
    top
  end
