"""Lowering annotated specs to plain ones plus task tables."""

from fractions import Fraction

from activemon.analysis import analyze
from activemon.ast import format_spec
from activemon.engine import Event, run_monitor_full, values_equal
from activemon.parser import parse_spec
from activemon.translate import translate

GOLDEN_PRIORITY = """\
input lat : Float64
input lon : Float64
input alt : Float64
output distance_to_bound
    eval |@lat&&lon| with min(lat - 3.0, 48.0 - lat, lon - 5.0, 52.0 - lon)
output bound_violation
    eval |@lat&&lon| when distance_to_bound < 12.0 with distance_to_bound < 0.0
    eval |@lat&&lon| when distance_to_bound >= 12.0 with false
output altitude_violation
    eval |@alt| with alt > 50.0
output schedule_lat_lon
    eval |@lat&&lon| when distance_to_bound < 12.0 with 10
    eval |@lat&&lon| when distance_to_bound >= 12.0 with 1
output last_lat_lon
    eval |@lat&&lon| with now
output schedule_alt
    eval |@alt| with 5
output last_alt
    eval |@alt| with now
"""


def test_priority_golden_translation(geofence_text):
    tr = translate(analyze(parse_spec(geofence_text)), "priority")
    assert format_spec(tr.spec) == GOLDEN_PRIORITY


def test_priority_helpers_are_exactly_four(geofence_text):
    analyzed = analyze(parse_spec(geofence_text))
    tr = translate(analyzed, "priority")
    helpers = [n for n in tr.spec.output_names()
               if n not in analyzed.spec.output_names()]
    assert helpers == [
        "schedule_lat_lon", "last_lat_lon", "schedule_alt", "last_alt"]


def test_translated_spec_is_annotation_free(geofence_text):
    tr = translate(analyze(parse_spec(geofence_text)), "priority")
    text = format_spec(tr.spec)
    assert "#[" not in text
    reparsed = analyze(parse_spec(text))
    assert reparsed.annotations == {}


def test_deadline_translation_emits_overdue_streams():
    text = ('#![frequency="1Hz"]\n'
            '#[deadline="3s"]\ninput x : Float64\n'
            '#[deadline="100s"]\ninput y : Float64\n'
            "output s := x + y\n")
    tr = translate(analyze(parse_spec(text)), "deadline")
    out = format_spec(tr.spec)
    assert "output schedule_x\n    eval |@x| with 3.0" in out
    assert ("output overdue_x\n    eval |@any| with "
            "now - last_x.offset(by:-1).defaults(to: -1e+18) > 3.0") in out
    x = frozenset({"x"})
    assert tr.names[x] == {
        "schedule": "schedule_x", "last": "last_x", "overdue": "overdue_x"}


def test_priority_mode_skips_overdue_streams(geofence_text):
    tr = translate(analyze(parse_spec(geofence_text)), "priority")
    assert not any("overdue" in kinds for kinds in tr.names.values())


def test_dp_translation_tracks_staleness(drone_text):
    tr = translate(analyze(parse_spec(drone_text)), "dp")
    for task, kinds in tr.names.items():
        assert set(kinds) == {"schedule", "last", "overdue"} or \
            set(kinds) == {"last", "overdue"}
    table = tr.task_table
    assert table["mode"] == "dp"
    assert len(table["tasks"]) == 4
    assert all(row["deadline"] == 3.0 for row in table["tasks"])
    assert table["tasks"][0]["inputs"] == ["gps_lat_long"]


def test_task_table_shape():
    text = ('#[deadline="3s"]\ninput x : Float64\noutput s := x\n')
    tr = translate(analyze(parse_spec(text)), "deadline")
    assert tr.task_table == {
        "mode": "deadline",
        "default_deadline": None,
        "tasks": [{
            "inputs": ["x"],
            "schedule": "schedule_x",
            "last": "last_x",
            "overdue": "overdue_x",
            "deadline": 3.0,
        }],
    }


def test_helper_names_dodge_collisions():
    text = ('#[priority="high"]\ninput a : Float64\n'
            "output schedule_a := a\noutput last_a := a + 1.0\n")
    tr = translate(analyze(parse_spec(text)), "priority")
    kinds = tr.names[frozenset({"a"})]
    assert kinds["schedule"] == "schedule_a_1"
    assert kinds["last"] == "last_a_1"


def test_translation_preserves_original_streams(geofence_text):
    analyzed = analyze(parse_spec(geofence_text))
    tr = translate(analyzed, "priority")
    events = [
        Event(Fraction(0), {"lat": 40.0, "lon": 20.0, "alt": 10.0}),
        Event(Fraction(1), {"lat": 47.9, "lon": 51.5}),
        Event(Fraction(2), {"alt": 80.0}),
        Event(Fraction(3), {"lat": 2.0, "lon": 30.0, "alt": 1.0}),
    ]
    base = run_monitor_full(analyzed, events)[0]
    lowered = run_monitor_full(tr.plain, events)[0]
    assert base.times == lowered.times
    for name in analyzed.spec.stream_names():
        assert all(values_equal(x, y) for x, y in
                   zip(base.streams[name], lowered.streams[name]))


def test_schedule_stream_reports_active_region(geofence_text):
    tr = translate(analyze(parse_spec(geofence_text)), "priority")
    events = [
        Event(Fraction(0), {"lat": 25.0, "lon": 25.0}),   # deep inside
        Event(Fraction(1), {"lat": 47.5, "lon": 20.0}),   # near the bound
    ]
    model = run_monitor_full(tr.plain, events)[0]
    assert model.streams["schedule_lat_lon"] == [1, 10]
    assert model.streams["last_lat_lon"] == [0.0, 1.0]
