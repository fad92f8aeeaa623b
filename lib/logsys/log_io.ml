type dump = {
  n_nodes : int;
  sink : Net.Packet.node_id;
  collected : Collected.t;
  truth : Truth.t option;
}

let kind_fields (kind : Record.kind) =
  match kind with
  | Gen -> ("gen", None)
  | Recv { from } -> ("recv", Some from)
  | Dup { from } -> ("dup", Some from)
  | Overflow { from } -> ("overflow", Some from)
  | Trans { to_ } -> ("trans", Some to_)
  | Ack_recvd { to_ } -> ("ack", Some to_)
  | Retx_timeout { to_ } -> ("timeout", Some to_)
  | Deliver -> ("deliver", None)

let kind_of_fields name peer : Record.kind =
  match (name, peer) with
  | "gen", None -> Gen
  | "recv", Some from -> Recv { from }
  | "dup", Some from -> Dup { from }
  | "overflow", Some from -> Overflow { from }
  | "trans", Some to_ -> Trans { to_ }
  | "ack", Some to_ -> Ack_recvd { to_ }
  | "timeout", Some to_ -> Retx_timeout { to_ }
  | "deliver", None -> Deliver
  | _ -> failwith (Printf.sprintf "Log_io: malformed kind %S" name)

(* Decimal integers only: an optional '-' then digits.  [int_of_string]
   would also take "0x1", "1_0", "+3", "0b11" and "0u5" and silently
   reinterpret them.  One pass, no allocation on success; the value
   accumulates negatively so [min_int] parses and anything past the int
   range is rejected, never wrapped. *)
let int_of_decimal s =
  let len = String.length s in
  let neg = len > 0 && String.unsafe_get s 0 = '-' in
  let start = if neg then 1 else 0 in
  let limit = min_int / 10 and last_digit = -(min_int mod 10) in
  let acc = ref 0 and i = ref start and ok = ref (len > start) in
  while !ok && !i < len do
    let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
    if d < 0 || d > 9 || !acc < limit || (!acc = limit && d > last_digit)
    then ok := false
    else begin
      acc := (!acc * 10) - d;
      incr i
    end
  done;
  if (not !ok) || ((not neg) && !acc = min_int) then
    failwith (Printf.sprintf "Log_io: bad integer %S" s);
  if neg then !acc else - !acc

let peer_str = function None -> "-" | Some p -> string_of_int p

let peer_of_str = function "-" -> None | s -> Some (int_of_decimal s)

let record_to_line (r : Record.t) =
  let kind, peer = kind_fields r.kind in
  Printf.sprintf "r %d %s %s %d %d %.6f %d" r.node kind (peer_str peer)
    r.origin r.pkt_seq r.true_time r.gseq

(* Hex-float time field: %.6f loses bits, and a streaming checkpoint must
   round-trip records byte-exactly.  [float_of_string] in [record_of_line]
   accepts both forms (and "nan"), so exact lines load like ordinary
   ones. *)
let record_to_line_exact (r : Record.t) =
  let kind, peer = kind_fields r.kind in
  Printf.sprintf "r %d %s %s %d %d %h %d" r.node kind (peer_str peer) r.origin
    r.pkt_seq r.true_time r.gseq

let record_of_line line =
  match String.split_on_char ' ' line with
  | [ "r"; node; kind; peer; origin; seq; time; gseq ] ->
      ({
         node = int_of_decimal node;
         kind = kind_of_fields kind (peer_of_str peer);
         origin = int_of_decimal origin;
         pkt_seq = int_of_decimal seq;
         true_time = float_of_string time;
         gseq = int_of_decimal gseq;
       }
        : Record.t)
  | _ -> failwith (Printf.sprintf "Log_io: malformed record line %S" line)

let fate_to_line origin seq (fate : Truth.fate) =
  Printf.sprintf "t %d %d %s %s %.6f %.6f %s" origin seq
    (Cause.name fate.cause)
    (peer_str fate.loss_node)
    fate.generated_at fate.resolved_at
    (String.concat "," (List.map string_of_int fate.path))

let fate_of_line line =
  match String.split_on_char ' ' line with
  | [ "t"; origin; seq; cause; loss_node; generated; resolved; path ] ->
      let cause =
        match Cause.of_name cause with
        | Some c -> c
        | None -> failwith (Printf.sprintf "Log_io: unknown cause %S" cause)
      in
      let path =
        if path = "" then []
        else String.split_on_char ',' path |> List.map int_of_decimal
      in
      ( int_of_decimal origin,
        int_of_decimal seq,
        ({
           cause;
           loss_node = peer_of_str loss_node;
           path;
           generated_at = float_of_string generated;
           resolved_at = float_of_string resolved;
         }
          : Truth.fate) )
  | _ -> failwith (Printf.sprintf "Log_io: malformed truth line %S" line)

let save oc ~sink ?truth ?(time_order = false) collected =
  Printf.fprintf oc "# refill-log v1\n";
  Printf.fprintf oc "# nodes %d\n" (Collected.n_nodes collected);
  Printf.fprintf oc "# sink %d\n" sink;
  if time_order then
    (* Arrival-order dump: what a sink collecting in real time would see.
       Streaming readers want this order — node-major order forces the
       frontier to hold nearly the whole trace. *)
    Array.iter
      (fun r -> output_string oc (record_to_line r ^ "\n"))
      (Collected.merged_by_time collected)
  else
    for node = 0 to Collected.n_nodes collected - 1 do
      Array.iter
        (fun r -> output_string oc (record_to_line r ^ "\n"))
        (Collected.node_log collected node)
    done;
  match truth with
  | None -> ()
  | Some t ->
      Truth.iter t (fun (origin, seq) fate ->
          output_string oc (fate_to_line origin seq fate ^ "\n"))

let save_file path ~sink ?truth ?time_order collected =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> save oc ~sink ?truth ?time_order collected)

let header_value line prefix =
  match String.split_on_char ' ' line with
  | [ h; key; v ] when h = "#" && key = prefix -> Some (int_of_decimal v)
  | _ -> None

(* The three header lines, shared by [load] and [Seg]: (nodes, sink).  An
   input that ends inside the header is malformed like any other, not an
   [End_of_file] escaping to the caller. *)
let read_header ic =
  let line () = try input_line ic with End_of_file -> "" in
  let first = line () in
  if first <> "# refill-log v1" then
    failwith (Printf.sprintf "Log_io: bad header %S" first);
  let n_nodes =
    match header_value (line ()) "nodes" with
    | Some n when n > 0 -> n
    | _ -> failwith "Log_io: missing nodes header"
  in
  match header_value (line ()) "sink" with
  | Some sink -> (n_nodes, sink)
  | None -> failwith "Log_io: missing sink header"

let load ic =
  let n_nodes, sink = read_header ic in
  let logs_rev = Array.make n_nodes [] in
  let truth = Truth.create () in
  let has_truth = ref false in
  (try
     while true do
       let line = input_line ic in
       if String.length line = 0 then ()
       else if line.[0] = 'r' then begin
         let r = record_of_line line in
         if r.node < 0 || r.node >= n_nodes then
           failwith "Log_io: record node out of range";
         logs_rev.(r.node) <- r :: logs_rev.(r.node)
       end
       else if line.[0] = 't' then begin
         let origin, seq, fate = fate_of_line line in
         has_truth := true;
         Truth.record truth ~origin ~seq fate
       end
       else if line.[0] = '#' then ()
       else failwith (Printf.sprintf "Log_io: malformed line %S" line)
     done
   with End_of_file -> ());
  let node_logs =
    Array.map (fun l -> Array.of_list (List.rev l)) logs_rev
  in
  {
    n_nodes;
    sink;
    collected = Collected.of_node_logs node_logs;
    truth = (if !has_truth then Some truth else None);
  }

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load ic)

module Seg = struct
  type reader = {
    ic : in_channel;
    seg_n_nodes : int;
    seg_sink : int;
    mutable eof : bool;
    mutable seg_read : int;
  }

  let of_channel ic =
    let seg_n_nodes, seg_sink = read_header ic in
    { ic; seg_n_nodes; seg_sink; eof = false; seg_read = 0 }

  let n_nodes r = r.seg_n_nodes

  let sink r = r.seg_sink

  let read r = r.seg_read

  (* Next record line, skipping comments, blanks and truth lines — a
     streaming consumer has no use for ground-truth fates. *)
  let rec next_record r =
    if r.eof then None
    else
      match input_line r.ic with
      | exception End_of_file ->
          r.eof <- true;
          None
      | line ->
          if String.length line = 0 then next_record r
          else if line.[0] = 'r' then begin
            let rec_ = record_of_line line in
            if rec_.node < 0 || rec_.node >= r.seg_n_nodes then
              failwith "Log_io: record node out of range";
            r.seg_read <- r.seg_read + 1;
            Some rec_
          end
          else if line.[0] = 't' || line.[0] = '#' then next_record r
          else failwith (Printf.sprintf "Log_io: malformed line %S" line)

  let next r ~max_records =
    if max_records <= 0 then invalid_arg "Log_io.Seg.next: max_records <= 0";
    match next_record r with
    | None -> None
    | Some first ->
        let out = Array.make max_records first in
        let count = ref 1 in
        while
          !count < max_records
          &&
          match next_record r with
          | Some rec_ ->
              out.(!count) <- rec_;
              incr count;
              true
          | None -> false
        do
          ()
        done;
        Some (if !count = max_records then out else Array.sub out 0 !count)

  let skip r n =
    let skipped = ref 0 in
    while !skipped < n && next_record r <> None do
      incr skipped
    done;
    !skipped
end
