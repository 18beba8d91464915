(** A parser for the MAT backend's control-plane entry dumps — the "what
    would the switch compute" half of the conformance harness.

    {!Homunculus_backends.P4gen} splits its output like a real deployment:
    the P4 program ({!Homunculus_backends.P4_ir}) declares tables, and
    [emit_entries] dumps the rows the control plane would install. This
    module parses that dump back into the {!Homunculus_backends.P4_ir.entries}
    value it was printed from; {!Homunculus_backends.Runtime.of_entries}
    then executes it with the serving runtime's own executor. There is one
    table semantics, so a P4 verdict differs from a served one only if the
    print → parse round-trip loses something, which a property test
    checks. *)

module P4_ir = Homunculus_backends.P4_ir

exception Bad_entries of string
(** The dump does not parse, or its rows are inconsistent with the table
    structure (e.g. a leaf row with no matching tree position). *)

val parse : string -> P4_ir.entries
(** Parse a raw entries dump (family is inferred from the table names);
    [parse (P4gen.print_entries ~name e) = e].
    @raise Bad_entries when it cannot be interpreted. *)

val validate_against : P4_ir.program -> string -> (unit, string) result
(** Every [table_add] and [table_set_default] row in the dump must reference
    a table declared by the program, with an action that table actually
    offers, and every [scale f<i>] row a feature key the program declares. *)
