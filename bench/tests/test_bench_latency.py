import numpy as np
import pytest

from streams import CameraFeed, frame_latencies


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def encoded_frames(n):
    from fatiguedet import imaging

    img = imaging.Image.from_array(np.zeros((4, 4), dtype=np.uint8))
    return [imaging.save_pnm(img)] * n


def stub_stream(feed, delays, clock, dones, read_ahead=False):
    """A consumer that spends delays[i] on frame i, then stamps its tick;
    with read_ahead it pulls every frame before handling the first."""
    frames = list(feed) if read_ahead else feed
    for i, _ in enumerate(frames):
        clock.now += delays[i]
        dones.append(clock())


def test_latency_is_pull_to_tick_completion():
    clock = FakeClock()
    delays = [0.010, 0.003, 0.020, 0.001]
    feed = CameraFeed(encoded_frames(len(delays)), clock)
    dones = []
    stub_stream(feed, delays, clock, dones)
    assert frame_latencies(feed.pulls, dones) == pytest.approx(delays)


def test_reading_ahead_shows_as_latency():
    clock = FakeClock()
    delays = [0.010, 0.010, 0.010, 0.010]
    feed = CameraFeed(encoded_frames(len(delays)), clock)
    dones = []
    stub_stream(feed, delays, clock, dones, read_ahead=True)
    # every frame was pulled at t=0, so frame i waits for frames 0..i
    assert frame_latencies(feed.pulls, dones) == pytest.approx(
        [0.010, 0.020, 0.030, 0.040])


def test_missing_completion_stamps_fail_the_run():
    with pytest.raises(ValueError, match="3 completion stamps for 4"):
        frame_latencies([0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
