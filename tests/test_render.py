"""Frame buffer encodings and remanence."""

import random

import pytest

from syncell import COOPERATE, Event, FrameBuffer, UP, World
from syncell.particles import RealParticle
from syncell.render import ASCII_CHARS, PALETTE, STATE0, WALL
from syncell.scenario import ScenarioSpec, SourceSpec, DetectorSpec, build_world, fire


def fired_world():
    w = World(9, 9, seed=0)

    def igniter():
        fire(w, w.grid.cell(4, 6), 1, UP, Event())
        yield COOPERATE

    w.sched.spawn(igniter())
    w.sched.run_instant()
    w.sched.run_instant()  # the fired cell is visible with state 2 now
    return w


def test_ppm_header_and_pixel_bytes():
    w = fired_world()
    fb = FrameBuffer(9, 9).paint(w)
    data = fb.to_ppm_bytes()
    assert data.startswith(b"P6\n9 9\n255\n")
    body = data[len(b"P6\n9 9\n255\n") :]
    assert len(body) == 9 * 9 * 3
    # the single visible cell carries its state color
    offset = (6 * 9 + 4) * 3
    assert tuple(body[offset : offset + 3]) == PALETTE[STATE0 + 2]
    # a border pixel is wall-colored
    assert tuple(body[0:3]) == PALETTE[WALL]


def test_ascii_encoding_digits_wall_background():
    w = fired_world()
    fb = FrameBuffer(9, 9).paint(w)
    lines = fb.to_ascii().splitlines()
    assert lines[0] == "#" * 9
    assert lines[6][4] == "2"
    assert lines[3][4] == "."
    assert set(ASCII_CHARS) >= set("".join(lines))


def test_exactly_one_state_pixel_beyond_static_geometry():
    w = fired_world()
    fb = FrameBuffer(9, 9).paint(w)
    state_pixels = [i for i, v in enumerate(fb.buf) if v >= STATE0]
    assert state_pixels == [6 * 9 + 4]


def test_remanence_keeps_old_pixels():
    w = fired_world()
    fb = FrameBuffer(9, 9, remanence=True)
    fb.paint(w)
    w.sched.run_instant()  # cell transmits and resets; next row not settled yet
    fb.paint(w)
    assert fb.buf[6 * 9 + 4] == STATE0 + 2  # erased cell still painted

    plain = FrameBuffer(9, 9, remanence=False)
    plain.paint(w)
    assert plain.buf[6 * 9 + 4] < STATE0


def test_every_visible_cell_appears_with_its_state_color():
    spec = ScenarioSpec(
        width=25,
        height=25,
        sources=[SourceSpec(x=12, y=21, shots=1)],
        detectors=[DetectorSpec(x0=1, y0=5, x1=23, y1=5)],
        seed=4,
    )
    w = build_world(spec)
    fb = FrameBuffer(25, 25)
    for _ in range(20):
        w.sched.run_instant()
        fb.paint(w)
        for c, s in w.visible.items():
            assert fb.buf[c.y * 25 + c.x] == STATE0 + s


def test_particles_are_painted_with_their_state_color():
    spec = ScenarioSpec(
        width=25,
        height=25,
        sources=[SourceSpec(x=12, y=21, shots=1)],
        detectors=[DetectorSpec(x0=1, y0=12, x1=23, y1=12)],
        seed=4,
    )
    w = build_world(spec)
    while not w.particles:
        w.sched.run_instant()
    w.sched.run_instant()
    fb = FrameBuffer(25, 25).paint(w)
    [p] = w.particles
    assert fb.buf[int(p.fy) * 25 + int(p.fx)] == STATE0 + p.state


def test_encodings_match_a_per_pixel_reference():
    fb = FrameBuffer(13, 7)
    rng = random.Random(5)
    fb.buf[:] = bytes(rng.randrange(len(PALETTE)) for _ in range(13 * 7))
    body = b"".join(bytes(PALETTE[i]) for i in fb.buf)
    assert fb.to_ppm_bytes() == b"P6\n13 7\n255\n" + body
    rows = ["".join(ASCII_CHARS[i] for i in fb.buf[y * 13 : (y + 1) * 13]) for y in range(7)]
    assert fb.to_ascii() == "\n".join(rows) + "\n"


def test_encoders_reject_an_index_past_the_palette():
    fb = FrameBuffer(4, 3)
    fb.buf[5] = len(PALETTE)
    with pytest.raises(IndexError):
        fb.to_ppm_bytes()
    with pytest.raises(IndexError):
        fb.to_ascii()
    # a base-7 world paints state 6 as STATE0 + 6, which has no color
    w = World(9, 9, base=7)
    w.particles.append(RealParticle(4.5, 4.5, 0.0, 0.0, 6))
    fb = FrameBuffer(9, 9).paint(w)
    with pytest.raises(IndexError):
        fb.to_ppm_bytes()


def test_ascii_rejects_exactly_the_indices_past_the_palette():
    fb = FrameBuffer(3, 3)
    for index in range(256):
        fb.buf[4] = index
        if index < len(PALETTE):
            assert fb.to_ascii().splitlines()[1][1] == ASCII_CHARS[index]
        else:
            with pytest.raises(IndexError):
                fb.to_ascii()


@pytest.mark.parametrize("fx,fy", [(-0.5, 4.5), (4.5, -0.5)])
def test_an_off_grid_particle_paints_nothing(fx, fy):
    # the stepper's math.floor puts (-1, 0) off the grid; int() would paint
    # the particle on the border ring
    w = World(9, 9)
    bare = bytes(FrameBuffer(9, 9).paint(w).buf)
    w.particles.append(RealParticle(fx, fy, 0.0, 0.0, 3))
    assert bytes(FrameBuffer(9, 9).paint(w).buf) == bare
