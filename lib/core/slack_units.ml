(* Expansion of buffered queries into g/0 units (paper Sec 4.2).

   Each SLA level contributes one unit: the unit's gain is lost exactly
   when its level deadline is missed. Units with non-negative slack
   feed the slack tree S+; units with negative slack feed the tardiness
   tree S- (with the sign reversed).

   Production trees expand their units straight into the flat arena
   ([Flat_sla_tree]); this expansion feeds the boxed [Cascade_tree] and
   the naive scan, the oracles the tests compare against. Both passes
   count first and fill pre-sized arrays — no intermediate lists. *)

type t = {
  uid : int;  (** position of the owning query in the buffer order *)
  slack : float;  (** deadline minus scheduled completion; may be < 0 *)
  gain : float;  (** profit at stake for this unit; > 0 *)
}

let count_of_entries entries =
  let total = ref 0 in
  Array.iter
    (fun entry ->
      total := !total + Sla.num_components entry.Schedule.query.Query.sla)
    entries;
  !total

let dummy = { uid = 0; slack = 0.0; gain = 0.0 }

(* Fill [units] starting at [k0] with the expansion of [entries]; the
   unit order is entries in buffer order, components by ascending
   bound — identical to the historical list-based construction. *)
let fill_of_schedule units k0 entries =
  let k = ref k0 in
  Array.iteri
    (fun pos entry ->
      let comps = Sla.components entry.Schedule.query.Query.sla in
      for c = 0 to Array.length comps - 1 do
        let { Sla.comp_bound; comp_gain } = comps.(c) in
        let slack = Schedule.slack entry ~bound:comp_bound in
        units.(!k) <- { uid = pos; slack; gain = comp_gain };
        incr k
      done)
    entries;
  !k

let of_schedule entries =
  let units = Array.make (count_of_entries entries) dummy in
  ignore (fill_of_schedule units 0 entries : int);
  units

let partition units =
  let n = Array.length units in
  let n_pos = ref 0 in
  for i = 0 to n - 1 do
    if units.(i).slack >= 0.0 then incr n_pos
  done;
  let pos = Array.make !n_pos dummy in
  let neg = Array.make (n - !n_pos) dummy in
  let p = ref 0 and q = ref 0 in
  for i = 0 to n - 1 do
    let u = units.(i) in
    if u.slack >= 0.0 then begin
      pos.(!p) <- u;
      incr p
    end
    else begin
      neg.(!q) <- { u with slack = -.u.slack };
      incr q
    end
  done;
  (pos, neg)
