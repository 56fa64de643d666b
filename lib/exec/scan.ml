open Mqr_storage

let seq_scan ctx heap =
  Heap_file.read heap ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock
    ~from_rid:0 ~to_rid:(Heap_file.tuple_count heap)

(* The B+-tree probe takes inclusive bounds, so a strict bound fetches its
   boundary rows too; the scan's filter, which carries every local
   conjunct, drops them. *)
let index_scan ctx heap btree ?lo ?hi () =
  let incl_lo = Option.map fst lo and incl_hi = Option.map fst hi in
  let rids =
    Btree.probe btree ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock
      ?lo:incl_lo ?hi:incl_hi ()
  in
  let fetch rid =
    Heap_file.fetch heap ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock rid
  in
  let out = Array.make (List.length rids) [||] in
  List.iteri (fun i rid -> out.(i) <- fetch rid) rids;
  out
