open Mqr_storage

type result = {
  rows : Tuple.t array;
  left_passes : int;
  right_passes : int;
}

let key_compare idxs a b =
  let rec go = function
    | [] -> 0
    | i :: rest ->
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go rest
  in
  go idxs

let has_null idxs t = List.exists (fun i -> Value.is_null t.(i)) idxs

let merge_join ctx ~mem_pages ?(left_sorted = false) ?(right_sorted = false)
    ~left:(left_rows, left_schema) ~right:(right_rows, right_schema) ~keys
    ?extra ~out () =
  let clock = ctx.Exec_ctx.clock in
  let pair = Rows_ops.Pair.make ~out left_schema right_schema in
  let li = List.map (fun (l, _) -> Schema.index_of left_schema l) keys in
  let ri = List.map (fun (_, r) -> Schema.index_of right_schema r) keys in
  (* each side sorts within half the grant *)
  let half = max 2 (mem_pages / 2) in
  let lkeys = List.map (fun (l, _) -> (l, true)) keys in
  let rkeys = List.map (fun (_, r) -> (r, true)) keys in
  let sort_side sorted schema keys rows =
    if sorted then { Sort.rows; passes = 0 }
    else Sort.sort ctx ~mem_pages:half schema ~keys rows
  in
  let ls = sort_side left_sorted left_schema lkeys left_rows in
  let rs = sort_side right_sorted right_schema rkeys right_rows in
  let l = ls.Sort.rows and r = rs.Sort.rows in
  let nl = Array.length l and nr = Array.length r in
  let residual = Option.map (fun e -> Mqr_expr.Expr.compile_pred out e) extra in
  let buf = Rows_ops.Out.create nl in
  (* classic merge with duplicate-group pairing *)
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    if has_null li l.(!i) then incr i
    else if has_null ri r.(!j) then incr j
    else begin
      let c =
        let rec cmp ls rs =
          match ls, rs with
          | [], [] -> 0
          | il :: lrest, ir :: rrest ->
            let c = Value.compare l.(!i).(il) r.(!j).(ir) in
            if c <> 0 then c else cmp lrest rrest
          | _ -> 0
        in
        cmp li ri
      in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        (* find the extent of the equal-key group on both sides *)
        let i_end = ref (!i + 1) in
        while !i_end < nl && key_compare li l.(!i) l.(!i_end) = 0 do
          incr i_end
        done;
        let j_end = ref (!j + 1) in
        (* right group boundary: same key as the current right row *)
        while !j_end < nr && key_compare ri r.(!j) r.(!j_end) = 0 do
          incr j_end
        done;
        for a = !i to !i_end - 1 do
          for b = !j to !j_end - 1 do
            let joined = Rows_ops.Pair.row pair l.(a) r.(b) in
            match residual with
            | Some p when not (p joined) -> ()
            | _ -> Rows_ops.Out.add buf joined
          done
        done;
        i := !i_end;
        j := !j_end
      end
    end
  done;
  Sim_clock.charge_cpu_tuples clock (nl + nr + Rows_ops.Out.length buf);
  { rows = Rows_ops.Out.contents buf;
    left_passes = ls.Sort.passes;
    right_passes = rs.Sort.passes }
